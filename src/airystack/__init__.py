"""Transfer-matrix transmission through squeezed biased multilayers.

Core pipeline: describe a structure (potential), realize it at a squeeze
parameter, build its transfer matrix (transfer, airy), scatter plane
waves against it (scattering), and compare against the closed-form
zero-thickness limits and their resonance sets (limits, resonance,
sweep).

Each name below is imported from its module on first access (PEP 562),
so a command loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names the package re-exports from it
_EXPORTS = {
    "airy": "ScaledAiryQuad airy_eval_scaled",
    "errors": "AirystackError ConfigError DegenerateSlopeError EvanescentLeadError "
              "NoClosedFormLimitError",
    "limits": "LimitClassification LimitKind single_layer_limit squeezed_limit",
    "potential": "EV_TO_INVNM2 ConcreteLayer LayerSpec RegionClass ResonanceEquation "
                 "StructureSpec classify_region ev_to_invnm2 invnm2_to_ev realize stack_potentials",
    "resonance": "ResonanceRoot ResonanceSet find_resonances_deltaprime_2layer "
                 "find_resonances_transistor_deltaprime resonances_delta_barrier_well "
                 "resonances_transistor_delta scan_and_bisect",
    "scattering": "ScatteringResult scatter trans_prob",
    "sweep": "SweepRequest SweepResult detect_peaks run_sweep",
    "transfer": "AiryLayerParams airy_layer_params structure_matrices",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "lockstep"}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SOURCE[name]}")
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
