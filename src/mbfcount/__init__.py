"""Monotone Boolean functions as bit vectors and exact self-dual counting."""

from .core import (
    Mbf,
    bottom,
    dual,
    is_monotone,
    is_self_dual,
    join,
    leq,
    meet,
    top,
    weight,
)
from .counting import (
    LAMBDA_KNOWN,
    LambdaResult,
    lambda_any,
    lambda_brute,
    lambda_plus2,
    lambda_plus3,
    lambda_plus4_classes,
    lambda_plus4_direct,
)
from .errors import (
    BudgetError,
    UnsupportedCombinationError,
    VerificationError,
    WidthError,
)
from .intervals import IntervalTable, build_full_table, re_scan
from .layers import Layer, generate_layer, self_dual_brute
from .orbits import (
    OrbitClass,
    VariablePermutation,
    apply_permutation,
    canonical,
    classify,
    orbit_size,
)

__version__ = "0.1.0"
