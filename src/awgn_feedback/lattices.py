"""Finite-dimensional lattices with exact nearest-neighbor quantization.

Supported families: the scaled cubic lattice cZ^n (any n, including the
scalar case n=1), the checkerboard lattice D4, and the Gosset lattice E8.
A :class:`Lattice` is just (family, dimension, scale).  One table row per
family holds its unit-scale generator, cell volume, second moment and
quantizer, and every other quantity is derived from the row and the scale.
Lattice points and modulo residues are plain float ndarrays.
:func:`quantize_nn` and :func:`modulo` act on arrays of shape (..., n), one
point per row of the last axis, with one vectorized quantizer per family
(Conway & Sloane, "Fast quantizing and decoding algorithms for lattice
quantizers and codes", IEEE T-IT 28(2), 1982): rounding for cZ^n, rounding
plus one parity-fixing flip for D_n, and for E8 the nearer of the D8 and
D8 + 1/2 candidates, both found in one D8 pass over the two cosets.  A
residue r returned by :func:`modulo` satisfies quantize_nn(r) = 0 (up to
one rounding on a cell facet), also for inputs past 2**53 cell widths,
whose first fold errs by an ulp of the input and is folded again.

The table's second moments are exact closed forms (Conway & Sloane, *Sphere
Packings, Lattices and Groups*, ch. 21): normalized second moments 1/12 for
Z^n, 13/(120*sqrt(2)) for D4 and 929/12960 for E8.

Quantization ties on Voronoi facets are broken toward the lexicographically
smallest lattice point, so every operation here is a deterministic pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from ._checks import count, real

__all__ = [
    "Lattice",
    "cubic_lattice",
    "make_lattice",
    "modulo",
    "quantize_nn",
    "sample_dither",
    "scale_to_power",
]


# =============================================================================
# UNIT FAMILIES
# =============================================================================

def _quantize_zn(y: np.ndarray) -> np.ndarray:
    """Nearest integer vectors, exact halves toward -inf (the lex-smaller)."""
    return np.ceil(y - 0.5)


def _quantize_dn(y: np.ndarray) -> np.ndarray:
    """Nearest points of D_n = even-sum integer vectors, lex tie-break.

    Start from the nearest integer vector f (halves rounded down, which is
    the lex-min nearest point of Z^n).  If its coordinate sum is even it is
    optimal: every equally near alternative only raises coordinates.  If the
    sum is odd, exactly one extra coordinate flip is needed, and a flip at
    coordinate i in direction d costs 1 - 2*d*e_i in squared distance; three
    or more flips can never beat the best single flip.  Listing the flips
    lex-smallest result first (downward flips by rising index, then upward
    flips by falling index), the first cheapest one is the lex-min nearest
    point.
    """
    f = np.ceil(y - 0.5)
    rows = f.reshape(-1, f.shape[-1])
    n = rows.shape[-1]
    # integer partial sums below 2**53 are exact in any order, so the
    # parity of this product is the parity of the coordinate sum
    total = rows @ np.ones(n)
    odd = np.flatnonzero(total - 2.0 * np.floor(0.5 * total))
    e = y.reshape(rows.shape)[odd] - rows[odd]
    pen = np.concatenate((1.0 + 2.0 * e, (1.0 - 2.0 * e)[:, ::-1]), axis=-1)
    j = pen.argmin(axis=-1)
    down = j < n
    rows[odd, np.where(down, j, 2 * n - 1 - j)] += np.where(down, -1.0, 1.0)
    return f


def _quantize_e8(y: np.ndarray) -> np.ndarray:
    """Nearest points of E8 = D8 union (D8 + half), lex tie-break across cosets.

    One D8 pass quantizes y and y - 1/2 together, one sum gives both
    cosets' distances.  The two candidates differ in every coordinate, so
    on a distance tie the lex-smaller one is the one with the smaller first
    coordinate.
    """
    q = _quantize_dn(np.stack((y, y - 0.5)))
    q[1] += 0.5
    d = ((y - q) ** 2).sum(axis=-1)
    first = (d[0] < d[1]) | ((d[0] == d[1]) & (q[0, ..., 0] < q[1, ..., 0]))
    return np.where(first[..., None], q[0], q[1])


# integer 4-vectors with even coordinate sum
_D4_BASE = np.array(
    [[1, 1, 0, 0], [1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]], dtype=float
)
# D8 together with its half-integer coset
_E8_BASE = np.eye(8) - np.eye(8, k=-1)
_E8_BASE[0, 0] = 2.0
_E8_BASE[7] = 0.5


class _Family(NamedTuple):
    """Unit-scale facts of one lattice family."""

    dimension: int | None  # None: any dimension
    generator: Callable[[int], np.ndarray]  # generator rows in n dimensions
    volume: float  # cell volume
    moment: float  # per-dimension second moment
    quantize: Callable[[np.ndarray], np.ndarray]  # lex-min nearest points
    covering: Callable[[int], float]  # covering radius in n dimensions


# Conway & Sloane, SPLAG, ch. 4 and 21; IEEE T-IT 28(2), 1982.
_FAMILIES = {
    "cubic": _Family(None, np.eye, 1.0, 1.0 / 12.0, _quantize_zn,
                     lambda n: math.sqrt(n) / 2.0),
    "d4": _Family(4, lambda n: _D4_BASE, 2.0, 13.0 / 120.0, _quantize_dn,
                  lambda n: 1.0),
    "e8": _Family(8, lambda n: _E8_BASE, 1.0, 929.0 / 12960.0, _quantize_e8,
                  lambda n: 1.0),
}


# =============================================================================
# CONSTRUCTION
# =============================================================================

@dataclass(frozen=True, eq=False)
class Lattice:
    """An immutable lattice: scale * (unit lattice of the family).

    ``family`` is 'cubic' (any dimension), 'd4' or 'e8'.  The generator,
    cell volume and second moments are derived from the family's unit-scale
    row and the scale.  ``second_moment`` is the per-dimension power of a
    uniform dither over the fundamental Voronoi cell; ``nsm`` is the
    scale-free version second_moment / cell_volume**(2/n).  Construction
    rejects an unknown family, a dimension the family does not have, and a
    scale that is not finite and positive.
    """

    family: str
    dimension: int
    scale: float

    def __post_init__(self) -> None:
        fam = _FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if fam is None:
            raise ValueError(
                f"unknown lattice family {self.family!r}; "
                f"expected one of {', '.join(_FAMILIES)}"
            )
        n = count("dimension", self.dimension)
        if fam.dimension is not None and n != fam.dimension:
            raise ValueError(
                f"lattice {self.family!r} has dimension {fam.dimension}, not {n}"
            )
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "scale", real("scale", self.scale, above=0.0))

    @property
    def generator(self) -> np.ndarray:
        """Generator rows, read-only."""
        g = self.scale * _FAMILIES[self.family].generator(self.dimension)
        g.setflags(write=False)
        return g

    @property
    def cell_volume(self) -> float:
        return _FAMILIES[self.family].volume * self.scale**self.dimension

    @property
    def second_moment(self) -> float:
        return _FAMILIES[self.family].moment * self.scale * self.scale

    @property
    def nsm(self) -> float:
        fam = _FAMILIES[self.family]
        return fam.moment / fam.volume ** (2.0 / self.dimension)


def cubic_lattice(dimension: int, spacing: float = 1.0) -> Lattice:
    """The lattice spacing * Z^dimension."""
    return Lattice("cubic", dimension, spacing)


def make_lattice(name: str, dimension: int | None = None) -> Lattice:
    """Factory by family name: 'z' (cubic, any dimension), 'd4', or 'e8'.

    ``dimension`` sizes the cubic family (default 1) and must be omitted or
    match for the fixed-dimension families.
    """
    if not isinstance(name, str):
        raise ValueError(f"name must be a str, got {name!r}")
    key = name.strip().lower()
    family = "cubic" if key == "z" else key
    if dimension is None:  # the family's fixed dimension, else 1
        dimension = getattr(_FAMILIES.get(family), "dimension", None) or 1
    return Lattice(family, dimension, 1.0)


# =============================================================================
# QUANTIZATION
# =============================================================================

def _check_points(lattice: Lattice, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != lattice.dimension:
        raise ValueError(
            f"expected points of shape (..., {lattice.dimension}), got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("input points must be finite")
    return x


def quantize_nn(lattice: Lattice, x) -> np.ndarray:
    """Nearest lattice point of each point along the last axis of x, in
    Euclidean distance; lex-smallest on ties."""
    x = _check_points(lattice, x)
    return lattice.scale * _FAMILIES[lattice.family].quantize(x / lattice.scale)


def modulo(lattice: Lattice, x) -> np.ndarray:
    """Residues x - quantize_nn(x), points of the fundamental Voronoi cell.

    Past 2**53 cell widths one fold errs by an ulp of the input, which can
    be many cells.  No coordinate of a cell point exceeds the covering
    radius, so every row with a coordinate beyond twice that is folded
    again until none is left; a normal call pays one max over the array.
    """
    x = _check_points(lattice, x)
    fam = _FAMILIES[lattice.family]
    s = lattice.scale
    r = x - s * fam.quantize(x / s)
    far = 2.0 * s * fam.covering(lattice.dimension)
    while r.size and np.abs(r).max() > far:
        out = (np.abs(r) > far).any(axis=-1)
        r[out] -= s * fam.quantize(r[out] / s)
    return r


def sample_dither(
    lattice: Lattice, rng: np.random.Generator, size: int | tuple[int, ...] = ()
) -> np.ndarray:
    """Independent dithers uniform on the fundamental Voronoi cell, shape
    (*size, n); one point of shape (n,) by default.

    Samples uniformly on the fundamental parallelepiped spanned by the
    generator rows (one ``rng.random`` call for all points) and folds the
    points into the Voronoi cell in one :func:`modulo` call; the fold is
    volume-preserving, so uniformity is exact.
    """
    size = (size,) if np.ndim(size) == 0 else size
    size = tuple(count("size", s, 0) for s in size)
    u = rng.random((*size, lattice.dimension))
    return modulo(lattice, u @ lattice.generator)


# =============================================================================
# POWER
# =============================================================================

def scale_to_power(lattice: Lattice, target_power: float) -> Lattice:
    """Rescale so the per-dimension dither power equals ``target_power``."""
    target_power = real("target_power", target_power, above=0.0)
    s = math.sqrt(target_power / lattice.second_moment)
    return replace(lattice, scale=lattice.scale * s)
