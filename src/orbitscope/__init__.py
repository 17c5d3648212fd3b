"""orbitscope: a desk-scale laboratory for coarse dynamics of weighted shifts.

Exact orbits and coarse orbits of weighted shift operators on finitely
supported sequence vectors, ball-generated open cones with exact
membership tests, finite certificates for coarse extended limit sets,
and runnable certificate suites.  Each witness is checked once, by the
function that builds it.
"""

from .errors import (
    ConfigError,
    IndecisiveSpectrum,
    IndexSetMismatch,
    InputNotAWitnessFamily,
    ModeMismatch,
    NumericOverflow,
    OrbitscopeError,
    SearchFailed,
    VerificationFailed,
)
from .numeric import Mode, QC
from .spaces import (
    IndexSet,
    NormTag,
    OpenCone,
    SeqVector,
    cone_contains,
    cone_sample,
    norm,
    norm_gt,
    norm_lt,
)
from .operators import (
    Band,
    Block,
    Constant,
    Periodic,
    PiecewiseTwoSided,
    PRESETS,
    Shape,
    ShiftOperator,
    Table,
    apply,
    apply_power,
    iterate,
    prop32_operator,
    riesz_blocks,
    shift_from_jsonable,
    spectral_radius,
    weight_product,
)
from .orbits import (
    CoarseWitness,
    OrbitTrace,
    coarse_orbit_contains,
    make_coarse_witness,
    orbit,
    rescale_coarse_witness,
)
from .limit_sets import (
    ContradictionReport,
    DWitness,
    EpsSchedule,
    JWitness,
    JWitnessTriple,
    Prop22Amplification,
    d_witness,
    derive_remark32_bounds,
    jmix_witness,
    prop22_amplify,
    remark32_contradiction_check,
    rescale_j_witness_family,
    search_j_witness,
)

__version__ = "0.1.0"
