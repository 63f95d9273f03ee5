"""Numerical calculus of monogenic functions in commutative algebras.

The library represents finite-dimensional commutative associative algebras
with an idempotent/nilpotent basis, evaluates monogenic functions of the
embedded real variable, and verifies the curvilinear Cauchy integral
theorem, the Morera identity, and the Cauchy integral formula by quadrature,
including the algebra constant lambda and the structure-constant conditions
under which it equals 2 pi i.
"""

from .algebra import (
    AlgebraSpec,
    Element,
    ValidationReport,
    basis_element,
    functional,
    left_mul_matrix,
    multiply,
    oracle_inverse,
    unit_element,
    validate_algebra,
    zero_element,
)
from .catalog import builtin_algebra, builtin_frames, builtin_names, list_builtins
from .curves import (
    Circle2D,
    Polyline,
    Triangle,
    TriangleSampler,
    coordinate_plane,
)
from .errors import (
    EmbracingError,
    FrameError,
    IntegrationError,
    MonalgError,
    PoleError,
    SingularElementError,
    SpecFormatError,
    StructureError,
)
from .frames import Frame, SpectralData, embed, spectral, validate_frame
from .integrals import (
    EmbraceCertificate,
    IntegralResult,
    LambdaResult,
    VerificationReport,
    cauchy_formula_check,
    cauchy_theorem_check,
    compute_lambda,
    line_integral,
    morera_check,
    winding_certificate,
)
from .monogenic import (
    HolomorphicScalarSpec,
    MonogenicFunction,
    Polynomial,
    PrincipalExtension,
    ResolventKernel,
    constant,
    cr_residual,
    eval_function,
    zeta,
    zeta_power,
)
from .predicates import (
    Theorem5Result,
    theorem5_predicate,
    theorem6_predicate,
    theorem7_predicate,
)
# The function ``resolvent`` is public API, so it keeps its name though it hides
# the submodule on the package: ``from monalg.resolvent import ...`` still works,
# and code that needs the module object uses importlib.import_module.
from .resolvent import inverse, resolvent
from .suites import SUITES, run_suites

__version__ = "0.1.0"
