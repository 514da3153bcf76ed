"""Simulator for chirp-sampling acoustic ranging with RF-powered tags.

Two halves share one configuration: the signal path (chirp synthesis,
acoustic propagation, one-bit backscatter, correlation ranging,
trilateration) and the power path (tag energy budget, capacitor sizing,
RF harvesting, charge timing, beam sweeps).  The package republishes every
name in each module's ``__all__``.
"""

__version__ = "0.1.0"

from .channel import *
from .energy import *
from .errors import *
from .ranging import *
from .signals import *
from .wpt import *

__all__ = [name for name in dir() if not name.startswith("_")]
