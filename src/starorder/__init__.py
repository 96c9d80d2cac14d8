"""starorder: the logical (star) order on finite-dimensional self-adjoint
operators, its commutative models, and an axiom-verification harness.

The operator model lives in :mod:`starorder.observables` on top of the
numerical core in :mod:`starorder.numerics`. The partial-function and
random-variable models are in :mod:`starorder.models`, the generic axiom
harness in :mod:`starorder.axioms`, finite-poset oracles and fixtures in
:mod:`starorder.poset`, and seeded operator sampling in
:mod:`starorder.sampling`.
"""

from .axioms import (
    AxiomReport,
    CheckConfig,
    StructureHandle,
    check_absorption_and_distributivity,
    check_gen_orthoalgebra,
    check_initial_segments_oml,
    check_nearsemilattice,
    check_orthogonality,
    check_overriding_and_skew,
    check_quasi_orthomodular,
    check_riesz,
    check_weak_bck,
    run_suite,
)
from .errors import (
    Conflict,
    ConvergenceFailure,
    DimMismatch,
    InfiniteCarrier,
    MeetUnavailable,
    NotLess,
    NotOrthogonal,
    NotUpperBound,
    OrthoMissing,
    OrthogonalityUnavailable,
    ParseError,
    PosetInvalid,
    StarOrderError,
    SubtractionUnavailable,
    UnknownElement,
)
from .models import (
    PartialFunction,
    RandomVariable,
    enumerate_partial_functions,
    enumerate_random_variables,
    pf_intersect,
    pf_perp,
    pf_skew_intersect,
    pf_structure,
    pf_union,
    rv_bck,
    rv_join_bounded,
    rv_le,
    rv_meet,
    rv_osum,
    rv_perp,
    rv_skew_meet,
    rv_structure,
    rv_to_diagonal,
    rv_to_partial_function,
)
from .numerics import (
    DEFAULT_TOL,
    HermitianOperator,
    Projector,
    Tolerances,
    commutes,
    eigh,
    op_equal,
    proj_join,
    proj_meet,
    range_projector,
)
from .observables import (
    bck_subtract,
    join_bounded,
    logical_le,
    meet,
    meet_bounded,
    orthogonal,
    osum,
    overridden,
    segment_complement,
    skew_meet,
)
from .poset import FinitePoset, boolean_cube, bowtie, mo2, o6, trivial_poset, v_poset
from .sampling import matrix_structure

__version__ = "0.1.0"
