"""Transfer-matrix transmission through squeezed biased multilayers.

Core pipeline: describe a structure (potential), realize it at a squeeze
parameter, build its transfer matrix (transfer, airy), scatter plane
waves against it (scattering), and compare against the closed-form
zero-thickness limits and their resonance sets (limits, resonance,
sweep).

Every public name is imported from its module (airystack.sweep,
airystack.limits, ...).  `import airystack` loads no submodule: a
submodule read as an attribute of the package is imported on first access
(PEP 562), and so is SweepRequest, the one name the package root gives.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name):
    if name == "SweepRequest":
        return importlib.import_module(f"{__name__}.sweep").SweepRequest
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise  # a module the submodule imports is missing
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
