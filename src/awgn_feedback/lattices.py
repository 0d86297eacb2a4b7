"""Finite-dimensional lattices with exact nearest-neighbor quantization.

Supported families: the scaled cubic lattice cZ^n (any n, including the
scalar case n=1), the checkerboard lattice D4, and the Gosset lattice E8.
Lattice points and modulo residues are plain float ndarrays; no wrapper
types.  :func:`quantize_nn` and :func:`modulo` act on arrays of shape
(..., n), one point per row of the last axis, with one vectorized quantizer
per family (Conway & Sloane, "Fast quantizing and decoding algorithms for
lattice quantizers and codes", IEEE T-IT 28(2), 1982): rounding for cZ^n,
rounding plus one parity-fixing flip for D_n, and the nearer of the D8 and
D8 + 1/2 candidates for E8.  A residue r returned by :func:`modulo`
satisfies quantize_nn(r) = 0.

Second moments are exact closed forms (Conway & Sloane, *Sphere Packings,
Lattices and Groups*, ch. 21): normalized second moments 1/12 for Z^n,
13/(120*sqrt(2)) for D4 and 929/12960 for E8.

Quantization ties on Voronoi facets are broken toward the lexicographically
smallest lattice point, so every operation here is a deterministic pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Lattice",
    "cubic_lattice",
    "d4_lattice",
    "e8_lattice",
    "looseness_to_vnr",
    "make_lattice",
    "modulo",
    "quantize_nn",
    "sample_dither",
    "scale_to_power",
    "vnr",
]

TWO_PI_E = 2.0 * math.pi * math.e

# Per-dimension second moment of the unit-scale D4 (cell volume 2) and E8
# (cell volume 1) bases below; Conway & Sloane, SPLAG, ch. 21.
_D4_UNIT_MOMENT = 13.0 / 120.0
_E8_UNIT_MOMENT = 929.0 / 12960.0


@dataclass(frozen=True, eq=False)
class Lattice:
    """An immutable lattice: scale * (base family).

    ``second_moment`` is the per-dimension power of a uniform dither over
    the fundamental Voronoi cell; ``nsm`` is the scale-free version
    second_moment / cell_volume**(2/n).  Both are exact closed forms, set at
    construction and carried through rescaling.
    """

    family: str
    dimension: int
    scale: float
    generator: np.ndarray
    cell_volume: float
    second_moment: float
    nsm: float


# =============================================================================
# CONSTRUCTION
# =============================================================================

def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def cubic_lattice(dimension: int, spacing: float = 1.0) -> Lattice:
    """The lattice spacing * Z^dimension."""
    if not isinstance(dimension, int) or dimension < 1:
        raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
    spacing = _check_scale(spacing)
    return Lattice(
        family="cubic",
        dimension=dimension,
        scale=spacing,
        generator=_frozen(spacing * np.eye(dimension)),
        cell_volume=spacing**dimension,
        second_moment=spacing * spacing / 12.0,
        nsm=1.0 / 12.0,
    )


def d4_lattice(scale: float = 1.0) -> Lattice:
    """The checkerboard lattice: integer 4-vectors with even coordinate sum."""
    scale = _check_scale(scale)
    base = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
        ]
    )
    return _family_lattice("d4", 4, scale, base, 2.0, _D4_UNIT_MOMENT)


def e8_lattice(scale: float = 1.0) -> Lattice:
    """The Gosset lattice: D8 together with its half-integer coset."""
    scale = _check_scale(scale)
    base = np.zeros((8, 8))
    base[0, 0] = 2.0
    for i in range(1, 7):
        base[i, i - 1] = -1.0
        base[i, i] = 1.0
    base[7, :] = 0.5
    return _family_lattice("e8", 8, scale, base, 1.0, _E8_UNIT_MOMENT)


def make_lattice(name: str, dimension: int | None = None) -> Lattice:
    """Factory by family name: 'z' (cubic, any dimension), 'd4', or 'e8'.

    ``dimension`` sizes the cubic family (default 1) and must be omitted or
    match for the fixed-dimension families.
    """
    key = name.strip().lower()
    if key in ("z", "cubic", "int"):
        return cubic_lattice(1 if dimension is None else dimension)
    if key == "d4":
        fixed = d4_lattice()
    elif key == "e8":
        fixed = e8_lattice()
    else:
        raise ValueError(
            f"unknown lattice family {name!r}; expected z, d4, or e8"
        )
    if dimension is not None and dimension != fixed.dimension:
        raise ValueError(
            f"lattice {key!r} has dimension {fixed.dimension}, not {dimension}"
        )
    return fixed


def _check_scale(scale: float) -> float:
    scale = float(scale)
    if not math.isfinite(scale) or scale <= 0.0:
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    return scale


def _family_lattice(
    family: str,
    n: int,
    scale: float,
    base: np.ndarray,
    unit_volume: float,
    unit_moment: float,
) -> Lattice:
    return Lattice(
        family=family,
        dimension=n,
        scale=scale,
        generator=_frozen(scale * base),
        cell_volume=unit_volume * scale**n,
        second_moment=unit_moment * scale * scale,
        nsm=unit_moment / unit_volume ** (2.0 / n),
    )


# =============================================================================
# QUANTIZATION
# =============================================================================

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
    odd = np.flatnonzero(rows.sum(axis=-1) % 2)
    e = y.reshape(rows.shape)[odd] - rows[odd]
    n = e.shape[-1]
    pen = np.concatenate((1.0 + 2.0 * e, (1.0 - 2.0 * e)[:, ::-1]), axis=-1)
    j = pen.argmin(axis=-1)
    down = j < n
    rows[odd, np.where(down, j, 2 * n - 1 - j)] += np.where(down, -1.0, 1.0)
    return f


def _quantize_e8(y: np.ndarray) -> np.ndarray:
    """Nearest points of E8 = D8 union (D8 + half), lex tie-break across cosets.

    The two candidates differ in every coordinate, so on a distance tie the
    lex-smaller one is the one with the smaller first coordinate.
    """
    q0 = _quantize_dn(y)
    q1 = 0.5 + _quantize_dn(y - 0.5)
    d0 = ((y - q0) ** 2).sum(axis=-1)
    d1 = ((y - q1) ** 2).sum(axis=-1)
    first = (d0 < d1) | ((d0 == d1) & (q0[..., 0] < q1[..., 0]))
    return np.where(first[..., None], q0, q1)


def _quantize_unit(family: str, y: np.ndarray) -> np.ndarray:
    if family == "cubic":
        # nearest integers, exact halves toward -inf (the lex-smaller one)
        return np.ceil(y - 0.5)
    if family == "d4":
        return _quantize_dn(y)
    return _quantize_e8(y)


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
    return lattice.scale * _quantize_unit(lattice.family, x / lattice.scale)


def modulo(lattice: Lattice, x) -> np.ndarray:
    """Residues x - quantize_nn(x), points of the fundamental Voronoi cell."""
    x = _check_points(lattice, x)
    return x - lattice.scale * _quantize_unit(lattice.family, x / lattice.scale)


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
    size = (size,) if np.ndim(size) == 0 else tuple(size)
    u = rng.random((*size, lattice.dimension))
    return modulo(lattice, u @ lattice.generator)


# =============================================================================
# POWER AND VNR ACCOUNTING
# =============================================================================

def scale_to_power(lattice: Lattice, target_power: float) -> Lattice:
    """Rescale so the per-dimension dither power equals ``target_power``."""
    target_power = float(target_power)
    if not math.isfinite(target_power) or target_power <= 0.0:
        raise ValueError(
            f"target power must be finite and positive, got {target_power!r}"
        )
    s = math.sqrt(target_power / lattice.second_moment)
    return replace(
        lattice,
        scale=lattice.scale * s,
        generator=_frozen(lattice.generator * s),
        cell_volume=lattice.cell_volume * s**lattice.dimension,
        second_moment=lattice.second_moment * s * s,
    )


def vnr(lattice: Lattice, noise_variance: float) -> float:
    """Volume-to-noise ratio cell_volume**(2/n) / noise_variance."""
    noise_variance = float(noise_variance)
    if not math.isfinite(noise_variance) or noise_variance <= 0.0:
        raise ValueError(
            f"noise variance must be finite and positive, got {noise_variance!r}"
        )
    return lattice.cell_volume ** (2.0 / lattice.dimension) / noise_variance


def looseness_to_vnr(looseness: float, lattice: Lattice | None = None) -> float:
    """VNR mu realizing looseness L: 2*pi*e*L for the asymptotically best
    shaping, or L / nsm for a concrete lattice (L = mu * nsm)."""
    looseness = float(looseness)
    if not math.isfinite(looseness) or looseness <= 0.0:
        raise ValueError(f"looseness must be finite and positive, got {looseness!r}")
    if lattice is None:
        return TWO_PI_E * looseness
    return looseness / lattice.nsm
