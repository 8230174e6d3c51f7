"""superprolong: exact computations with graded Lie superalgebras.

Capabilities: Tanaka-Weisfeiler prolongation pr(m, g0) with higher-order
reductions, generalized Spencer cohomology H^{d,k}(m, g), weak derived flags
and symbols of polynomial superdistributions, and contact-symmetry
superalgebras of odd ODEs -- all over Q or Q(i), no floating point.

The package attribute ``prolong`` is the function, which shadows the module
of that name; reach it by ``importlib.import_module("superprolong.prolong")``.
"""

from .scalars import FIELD_Q, FIELD_QI, Scalar, parse_scalar
from .superspace import (
    EVEN,
    ODD,
    BasisVector,
    ExteriorBasisMonomial,
    GradedSuperSpace,
    exterior_power_basis,
)
from .liesuper import (
    LieSuperalgebra,
    SymbolAlgebra,
    check_fundamental_nondegenerate,
    derivations_gr,
    validate,
)
from .catalog import build_named
from .prolong import (
    Prolongation,
    ProlongationResult,
    projective_trace_reduction,
    prolong,
)
from .spencer import (
    CochainSlice,
    cohomology_dims,
    reduced_differential_check,
)
from .superfield import (
    Ambient,
    DistributionSpec,
    SuperPolynomial,
    SuperVectorField,
    bracket_fields,
    check_strong_regularity,
    derived_flag,
    extract_symbol,
    left_invariant_distribution,
    left_invariant_fields,
    parse_field,
    parse_superfunction,
)
from .oddode import (
    ContactField,
    GeneratingFunction,
    JetContext,
    JetFunction,
    OdeSpec,
    contact_vf,
    determine_symmetries,
    lagrange_bracket,
    parse_jet,
    prolong_field,
)

__version__ = "0.1.0"
