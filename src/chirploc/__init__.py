"""Simulator for chirp-sampling acoustic ranging with RF-powered tags.

Two halves share one configuration: the signal path (chirp synthesis,
acoustic propagation, one-bit backscatter, correlation ranging,
trilateration) and the power path (tag energy budget, capacitor sizing,
RF harvesting, charge timing, beam sweeps).
"""

__version__ = "0.1.0"

from .channel import (
    AcousticChannel,
    ReceiveWindow,
    propagate_acoustic,
    sample_window,
)
from .energy import (
    ComponentPower,
    HarvesterSpec,
    StartupPlan,
    buffer_energy,
    default_components,
    default_efficiency_curve,
    default_harvester,
    harvester_output,
    load_component_table,
    load_efficiency_curve,
    min_capacitance,
    next_standard_capacitance,
    tag_energy,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    GeometryError,
    ParameterError,
    RangeWindowError,
)
from .ranging import (
    BeaconSet,
    PositionFix,
    RangingResult,
    RangingTimeline,
    simulate_ranging,
    trilaterate,
)
from .signals import (
    BitStream,
    ChirpSpec,
    FskConfig,
    Waveform,
    fsk_modulate,
    gen_chirp,
    one_bit_quantize,
    xcorr_offset,
)
from .wpt import (
    C_LIGHT,
    ArraySpec,
    ChargeScenario,
    RfLink,
    array_factor,
    beam_sweep_precharge,
    charge_time,
    friis_received_power,
    update_rate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
