"""Exact-arithmetic construction, verification and extension of
finite-dimensional quantum affine sl2 modules over the rationals."""

from .analysis import (
    ABSOLUTELY_IRREDUCIBLE,
    NOT_IRREDUCIBLE,
    IrreducibilityReport,
    burnside_irreducible,
    finite_decompose,
    spin,
    verify_raising_powers,
)
from .errors import (
    CheckFailedError,
    IrreducibilityError,
    ModuleFormatError,
    QAffineError,
    RelationError,
    WeightLadderError,
)
from .extension import ExtensionTrace, extend
from .factory import (
    EvalParams,
    ModuleData,
    build_module,
    evaluation_module,
    finite_module,
    restrict_to_borel,
    restrict_to_ugeq0,
    tensor_product,
    twist_borel,
    twist_full,
)
from .linalg import (
    Matrix,
    Subspace,
    char_poly,
    eigenvalues,
    kernel,
    kronecker,
    rational_roots,
    subspace_intersect,
    subspace_sum,
)
from .modfile import (
    module_from_dict,
    module_to_dict,
    module_to_json,
    read_module,
    write_module,
    write_report,
)
from .presentations import (
    AFFINE_BOREL,
    AFFINE_FULL,
    ALPHABETS,
    FINITE,
    UGEQ0,
    RelationWord,
    check_presentation,
    evaluate_word,
    relations_for,
)
from .report import CheckResult, VerificationReport
from .scalars import QParam, Scalar, as_scalar, qint, qparam, scalar_str
from .weights import (
    BorelWeightData,
    FullWeightData,
    WeightLadder,
    analyze_borel,
    analyze_full,
    analyze_ugeq0,
)

__version__ = "0.1.0"
