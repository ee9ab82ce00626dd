"""hermitia: exact verification of invariant Hermitian, quaternionic and
isometry-theoretic structures on finite-dimensional Lie algebra models."""

from .builders import (
    BUILTIN_NAMES,
    almost_abelian,
    builtin,
    heisenberg3,
    sasaki_kahler_suspension,
)
from .cealg import (
    Form,
    FormError,
    JacobiReport,
    LieAlgebraPresentation,
    PresentationError,
    abelian,
    d,
    direct_sum,
    top_coefficient,
    wedge,
    wedge_all,
    wedge_power,
)
from .complexops import (
    AlmostComplexStructure,
    BigradedForm,
    IntegrabilityError,
    bidegree,
    dc,
    del_,
    delbar,
    fundamental_form,
    nijenhuis_vanishes,
    weil_operator,
)
from .hyperbolic import (
    LatticeError,
    PowerIterationError,
    QuadraticLattice,
    char_poly,
    classify,
    invariant_classes,
    power_iterate,
    spectral_radius_interval,
    verify_isometry,
)
from .manifest import Manifest, ManifestError, Report, run_check
from .metrics import (
    HermitianCandidate,
    LeeFormSolution,
    MetricError,
    bismut_torsion,
    gram_and_signature,
    is_astheno,
    is_balanced,
    is_k_pluriclosed,
    is_kahler,
    is_pluriclosed,
    lee_form,
    positivity_falsify,
    strong_positivity_certificate,
)
from .quaternion import (
    HKTCandidate,
    HypercomplexTriple,
    QuaternionError,
    check_hkt,
    check_hypercomplex,
    check_pseudo_hyperkahler,
    check_quaternionic_balanced,
    del_primitive,
    hkt_obstruction,
)
from .scalars import (
    EvaluationError,
    ParseError,
    Scalar,
    ScalarError,
    Symbol,
    SymbolTable,
    parse_expr,
)

__version__ = "0.1.0"
