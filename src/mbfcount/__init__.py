"""Monotone Boolean functions as bit vectors and exact self-dual counting.

One function is an Mbf, whose operators and methods are the only scalar
API: x <= y, x | y, x & y, x.dual(), x.weight(), x.is_self_dual(), and
Mbf.from_bits to vet a raw table.  Whole layers are uint64 arrays.
"""

from .core import Mbf, bottom, top
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
from .orbits import OrbitClass, classify

__version__ = "0.1.0"
