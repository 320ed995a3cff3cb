"""Transfer-matrix transmission through squeezed biased multilayers.

Core pipeline: describe a structure (potential), realize it at a squeeze
parameter, build its transfer matrix (transfer, airy), scatter plane
waves against it (scattering), and compare against the closed-form
zero-thickness limits and their resonance sets (limits, resonance,
sweep).
"""

from .airy import ScaledAiryQuad, airy_eval_scaled
from .errors import (
    AirystackError,
    ConfigError,
    DegenerateSlopeError,
    EvanescentLeadError,
    NoClosedFormLimitError,
)
from .limits import (
    LimitClassification,
    LimitKind,
    TransistorSpec,
    limit_transmission_on_resonance,
    single_layer_limit,
    squeezed_limit,
)
from .potential import (
    EV_TO_INVNM2,
    ConcreteLayer,
    LayerSpec,
    RegionClass,
    StructureSpec,
    classify_region,
    ev_to_invnm2,
    invnm2_to_ev,
    realize,
    stack_potentials,
)
from .resonance import (
    ResonanceEquation,
    ResonanceRoot,
    ResonanceSet,
    find_resonances_deltaprime_2layer,
    find_resonances_transistor_deltaprime,
    resonances_delta_barrier_well,
    resonances_transistor_delta,
    scan_and_bisect,
)
from .scattering import ScatteringResult, scatter, trans_prob
from .sweep import SweepRequest, SweepResult, detect_peaks, run_sweep
from .transfer import (
    AiryLayerParams,
    airy_layer_params,
    layer_matrices,
    structure_matrices,
)

__version__ = "0.1.0"
