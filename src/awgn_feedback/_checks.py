"""The argument rules every public function of the package applies.

A *number* is any ``numbers.Real`` except ``bool`` (Python and numpy floats
and integers, fractions), returned as a ``float``; infinities and nan pass,
for the few arguments where they carry a meaning.  A *real* is a number that
is finite and, when a bound is given, above it (``above``) or at least it
(``at_least``).  A *count* is any ``numbers.Integral`` except ``bool``; it
is returned as an ``int`` and must lie in [lo, hi).  Any other value raises
ValueError naming the argument, never TypeError.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


def number(name: str, x) -> float:
    """``x`` as a float, infinite and nan included, else ValueError."""
    # exact float first: the ABC isinstance costs about 30 times more
    if type(x) is not float and (not isinstance(x, Real) or isinstance(x, bool)):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    return float(x)


def real(
    name: str, x, *, above: float | None = None, at_least: float | None = None
) -> float:
    """``x`` as a finite float within its bound, else ValueError."""
    v = number(name, x)
    if (math.isfinite(v) and (above is None or v > above)
            and (at_least is None or v >= at_least)):
        return v
    if above is not None:
        bound = " and positive" if above == 0.0 else f" and > {above:g}"
    elif at_least is not None:
        bound = " and nonnegative" if at_least == 0.0 else f" and >= {at_least:g}"
    else:
        bound = ""
    raise ValueError(f"{name} must be finite{bound}, got {v!r}")


def count(name: str, x, lo: int = 1, hi: int | None = None) -> int:
    """``x`` as an int in [lo, hi), else ValueError."""
    if type(x) is not int and (not isinstance(x, Integral) or isinstance(x, bool)):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    n = int(x)
    if hi is None and n < lo:
        raise ValueError(f"{name} must be >= {lo}, got {n}")
    if hi is not None and not lo <= n < hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}), got {n}")
    return n
