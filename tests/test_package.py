"""The package surface: ``chirploc`` republishes each module's public names."""

import importlib

import chirploc

# the names each submodule gives the package, which also exports the six
# submodules themselves
EXPORTS = {
    "channel": ["AcousticChannel", "ReceiveWindow", "propagate_acoustic",
                "sample_window"],
    "energy": ["ComponentPower", "HarvesterSpec", "StartupPlan", "buffer_energy",
               "default_components", "default_efficiency_curve",
               "default_harvester", "harvester_output", "load_component_table",
               "load_efficiency_curve", "min_capacitance",
               "next_standard_capacitance", "tag_energy"],
    "errors": ["ConfigError", "ConvergenceError", "GeometryError",
               "ParameterError", "RangeWindowError"],
    "ranging": ["BeaconSet", "PositionFix", "RangingResult", "RangingTimeline",
                "simulate_ranging", "trilaterate"],
    "signals": ["BitStream", "ChirpSpec", "FskConfig", "Waveform", "fsk_modulate",
                "gen_chirp", "one_bit_quantize", "xcorr_offset"],
    "wpt": ["C_LIGHT", "ArraySpec", "ChargeScenario", "RfLink", "array_factor",
            "beam_sweep_precharge", "charge_time", "friis_received_power",
            "update_rate"],
}


def test_package_exports_the_same_51_names():
    names = [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]
    assert len(names) == 51
    assert sorted(chirploc.__all__) == sorted(names)


def test_each_export_is_the_object_its_module_exports():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"chirploc.{module_name}")
        assert getattr(chirploc, module_name) is module
        public = getattr(module, "__all__", dir(module))
        for name in names:
            assert name in public, f"{module_name}.{name}"
            assert getattr(chirploc, name) is getattr(module, name), name
