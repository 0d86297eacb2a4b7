"""Tests for lattice constructions, quantizers, and dither machinery."""

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from awgn_feedback import (
    Lattice,
    cubic_lattice,
    make_lattice,
    modulo,
    quantize_nn,
    sample_dither,
    scale_to_power,
)

TWO_PI_E = 2.0 * math.pi * math.e

# reference normalized second moments (Conway & Sloane, SPLAG, ch. 21)
G_CUBIC = 1.0 / 12.0
G_D4 = 13.0 / (120.0 * math.sqrt(2.0))
G_E8 = 929.0 / 12960.0


# covering radius of each unit-scale family: every point lies this close
# to its nearest lattice point
_COVERING = {"d4": 1.0, "e8": 1.0}


def nearest_points(lat, y):
    """All lattice points nearest to y, by exhaustive search, with their
    squared distance.

    A nearest point lies within the covering radius rho of y, so each of
    its coordinates lies within rho of y's; the search enumerates every
    member of the lattice in that box (D4 and E8 members are integer, or
    for E8 all half-integer, vectors with even coordinate sum).
    """
    n = lat.dimension
    t = np.asarray(y, dtype=float) / lat.scale
    rho = _COVERING.get(lat.family, math.sqrt(n) / 2.0) + 1e-9
    cosets = (0.0, 0.5) if lat.family == "e8" else (0.0,)
    pts = []
    for h in cosets:
        axes = [np.arange(math.ceil(v - h - rho), math.floor(v - h + rho) + 1)
                for v in t]
        k = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        if lat.family != "cubic":
            k = k[k.sum(axis=1) % 2 == 0]
        pts.append(k + h)
    pts = lat.scale * np.concatenate(pts)
    d = np.sum((pts - y) ** 2, axis=1)
    return pts[d == d.min()], float(d.min())


def brute_nearest(lat, y):
    """The lex-smallest nearest lattice point and its squared distance."""
    pts, d = nearest_points(lat, y)
    return pts[np.lexsort(pts.T[::-1])[0]], d


# -----------------------------------------------------------------------------
# construction
# -----------------------------------------------------------------------------

def test_cell_volumes():
    assert cubic_lattice(1).cell_volume == 1.0
    assert cubic_lattice(3, spacing=2.0).cell_volume == pytest.approx(8.0)
    assert make_lattice("d4").cell_volume == pytest.approx(2.0, rel=1e-12)
    assert make_lattice("e8").cell_volume == pytest.approx(1.0, rel=1e-12)


def test_make_lattice_names():
    assert make_lattice("z", 3).dimension == 3
    assert make_lattice("cubic", 2).family == "cubic"
    assert make_lattice("d4").dimension == 4
    assert make_lattice("e8").dimension == 8
    for name in ("leech", "int"):
        with pytest.raises(ValueError, match="unknown lattice family"):
            make_lattice(name)
    for name in (None, 4):
        with pytest.raises(ValueError, match="name must be a str"):
            make_lattice(name)
    with pytest.raises(ValueError):
        make_lattice("d4", 5)


def test_direct_construction_validates():
    # family names are the lower-case table keys; D4 and E8 fix the dimension
    for family, n in (("D4", 4), ("d5", 5), ("d4", 5), ("e8", 4), ("cubic", 0),
                      ("cubic", True)):
        with pytest.raises(ValueError):
            Lattice(family, n, 1.0)
    for scale in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Lattice("d4", 4, scale)


def test_derived_quantities_follow_the_scale():
    """Rescaling by replace or scale_to_power moves the generator, cell
    volume and second moment with the scale; the nsm is scale-free."""
    for unit in (cubic_lattice(3), make_lattice("d4"), make_lattice("e8")):
        n = unit.dimension
        for lat in (replace(unit, scale=2.0),
                    scale_to_power(unit, 4.0 * unit.second_moment)):
            assert lat.scale == pytest.approx(2.0, rel=1e-12)
            np.testing.assert_allclose(lat.generator, 2.0 * unit.generator,
                                       rtol=1e-12)
            assert lat.cell_volume == pytest.approx(2.0 ** n * unit.cell_volume,
                                                    rel=1e-12)
            assert lat.second_moment == pytest.approx(4.0 * unit.second_moment,
                                                      rel=1e-12)
            assert lat.nsm == unit.nsm


def test_generators_produce_members():
    # integer combinations of rows land on quantizer fixed points
    rng = np.random.default_rng(11)
    for lat in (cubic_lattice(3), make_lattice("d4"), make_lattice("e8")):
        for _ in range(50):
            coeff = rng.integers(-4, 5, size=lat.dimension)
            pt = coeff @ lat.generator
            q = quantize_nn(lat, pt)
            assert np.array_equal(q, pt)


def test_d4_points_have_even_coordinate_sum():
    rng = np.random.default_rng(12)
    lat = make_lattice("d4")
    for _ in range(200):
        q = quantize_nn(lat, rng.normal(size=4) * 2.0)
        assert int(round(q.sum())) % 2 == 0
        assert np.allclose(q, np.round(q))


def test_e8_points_are_integral_or_half_integral():
    rng = np.random.default_rng(13)
    lat = make_lattice("e8")
    for _ in range(200):
        q = quantize_nn(lat, rng.normal(size=8) * 1.5)
        doubled = 2.0 * q
        assert np.allclose(doubled, np.round(doubled))
        frac = q - np.floor(q)
        # all-integer or all-half coordinates, sum even
        assert np.allclose(frac, frac[0])
        assert int(round(q.sum() * (1 if frac[0] == 0 else 2))) % 2 == 0


# -----------------------------------------------------------------------------
# nearest-neighbor quantization
# -----------------------------------------------------------------------------

@pytest.mark.parametrize("name,dim,scale", [
    ("cubic", 3, 1.0),
    ("cubic", 2, 0.7),
    ("d4", 4, 1.0),
    ("e8", 8, 1.0),
])
def test_quantizer_matches_brute_force(name, dim, scale):
    lat = make_lattice(name, dim)
    if scale != 1.0:
        lat = cubic_lattice(dim, spacing=scale)
    rng = np.random.default_rng(101)
    for _ in range(300):
        y = rng.normal(size=lat.dimension) * 1.8
        q = quantize_nn(lat, y)
        _, best_d = brute_nearest(lat, y)
        d = float(np.sum((y - q) ** 2))
        assert d <= best_d + 1e-9


def test_cubic_ties_round_down():
    lat = cubic_lattice(1)
    assert quantize_nn(lat, np.array([0.5]))[0] == 0.0
    assert quantize_nn(lat, np.array([1.5]))[0] == 1.0
    assert quantize_nn(lat, np.array([-0.5]))[0] == -1.0
    assert quantize_nn(lat, np.array([-1.5]))[0] == -2.0


def test_quantizer_worked_examples():
    c = 2.0
    lat = cubic_lattice(1, spacing=c)
    assert quantize_nn(lat, np.array([0.49 * c]))[0] == 0.0
    assert quantize_nn(lat, np.array([3.0 * c]))[0] == 3.0 * c
    z2 = cubic_lattice(2)
    assert np.array_equal(quantize_nn(z2, np.array([0.7, -1.2])),
                          np.array([1.0, -1.0]))
    # lattice members are fixed points for every family
    for lat in (make_lattice("d4"), make_lattice("e8")):
        p = np.array([2, -1, 0, 1, 1, 0, -3, 2][: lat.dimension],
                     dtype=float) @ lat.generator
        assert np.array_equal(quantize_nn(lat, p), p)


def test_d4_tie_prefers_lexicographic_minimum():
    lat = make_lattice("d4")
    # equidistant from (0,0,0,0) and (1,1,0,0)
    q = quantize_nn(lat, np.array([0.5, 0.5, 0.0, 0.0]))
    assert np.array_equal(q, np.zeros(4))
    # odd-parity integer point: many neighbors at distance 1
    q = quantize_nn(lat, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(q, np.zeros(4))


def test_e8_tie_between_cosets():
    lat = make_lattice("e8")
    q = quantize_nn(lat, np.full(8, 0.25))
    assert np.array_equal(q, np.zeros(8))


def test_quantizer_shape_checks():
    lat = make_lattice("d4")
    with pytest.raises(ValueError):
        quantize_nn(lat, np.zeros(3))
    with pytest.raises(ValueError):
        modulo(lat, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        modulo(lat, np.float64(0.0))
    with pytest.raises(ValueError):
        modulo(lat, np.array([[0.0, 0.0, np.nan, 0.0]]))
    # a stack of points is one batch
    assert modulo(lat, np.zeros((2, 4))).shape == (2, 4)


def _tie_points(rng, n, count):
    """Half- and quarter-integer points, which often sit on Voronoi facets
    of D4 and E8."""
    return np.concatenate([rng.integers(-6, 7, size=(count, n)) / 2.0,
                           rng.integers(-12, 13, size=(count, n)) / 4.0])


@pytest.mark.parametrize("lat", [cubic_lattice(3, spacing=0.7), make_lattice("d4"),
                                 make_lattice("e8")], ids=lambda lat: lat.family)
def test_batch_matches_row_by_row(lat):
    rng = np.random.default_rng(14)
    n = lat.dimension
    pts = np.concatenate([_tie_points(rng, n, 70), rng.normal(size=(70, n))])
    batch = lat.scale * pts[rng.permutation(len(pts))].reshape(6, 35, n)
    rows = batch.reshape(-1, n)
    for f in (quantize_nn, modulo):
        one_by_one = np.stack([f(lat, r) for r in rows]).reshape(batch.shape)
        assert np.array_equal(f(lat, batch), one_by_one)


@pytest.mark.parametrize("lat", [make_lattice("d4"), make_lattice("e8")],
                         ids=lambda lat: lat.family)
def test_ties_go_to_lexicographic_minimum(lat):
    rng = np.random.default_rng(15)
    pts = _tie_points(rng, lat.dimension, 200)
    q = quantize_nn(lat, pts)
    ties = 0
    for y, got in zip(pts, q):
        best, _ = brute_nearest(lat, y)
        assert np.array_equal(got, best), y
        ties += len(nearest_points(lat, y)[0]) > 1
    # the tie rule decides a good share of these points
    assert ties > len(pts) // 4


# SHA-256 of the quantize_nn then modulo output bytes of 4000 seeded points:
# normal batches at coordinate spreads 0.5, 3, 1e3 and 1e9 on each lattice at
# scale 1.3, then a quarter-integer grid (full of facet ties) on the same
# family at unit scale
QUANTIZER_DIGESTS = {
    "cubic": [
        "48b2b9ca079dae0d9bf50fc648ca410827d7563a70f88696104a6e51c43d679c",
        "a33ca07864e6e15c39f541545ed286b934b95dc3d0ec0305c48ee1ac1a78baa7",
        "745272f3318451e6ce9cf37d65eb0db5ec83ee175f417d8abeb4afe9e7a3decd",
        "73d76fd4f0a6c4e1b8cafcf1c38b3f78a8bb0b8a47232b8205f5e3687f66bbe6",
        "17ea5d9b288f3db08ae62e11d8ec62c9f823db091821bd93e6ef131a0c5277df",
    ],
    "d4": [
        "348a92af12760882a79652f2bd1e46f5869c9f34205e3ed71c17b16e2640c91f",
        "a9dc1b2bd86442c9562a9bfa0d4bfa79947b0fa7a7a409088dfcabcaa918f2b7",
        "ede2edac83e7ee4b4991749cbbf29513797b4a331b59fa56b27b0896a7fb9ab3",
        "331b795028b8a75a3b8b372825ca147872dcc0c749d4bd61cd4b6ab429668593",
        "442d0c33a347f88163cde58f7d60b4c7a896eb325c4375f2bb5a0e865614b8ac",
    ],
    "e8": [
        "f1131669c9e553ff257d2e1429e3c26e0edf2eaa189a3e0d9b73311fb5913e73",
        "9477fac3aa2a43a275c7f39df576f354e408a708cb9e7039176c0f5c988049b5",
        "95dc756df252e3d89bba5de688bf9d65f194da90e4b2cd3ae2811e316d2fc12f",
        "5eafe0cc50a95e3ea6d0153be62b4a5fbd63b87ad8405281a1ee547bd4c2e4b7",
        "f5c9fbca34ff18cc22be0a103d2f6ac64ef03518d3c3bfe28b3d583b0a1fffcf",
    ],
}


@pytest.mark.parametrize("lat", [cubic_lattice(3, 1.3), Lattice("d4", 4, 1.3),
                                 Lattice("e8", 8, 1.3)], ids=lambda lat: lat.family)
def test_quantizer_bits_pinned(lat):
    """quantize_nn and modulo keep their exact output bytes, signed zeros
    and tie-breaks included."""
    def digest(lattice, x):
        h = hashlib.sha256(quantize_nn(lattice, x).tobytes())
        h.update(modulo(lattice, x).tobytes())
        return h.hexdigest()

    rng = np.random.default_rng(17)
    n = lat.dimension
    got = [digest(lat, spread * rng.standard_normal((4000, n)))
           for spread in (0.5, 3.0, 1e3, 1e9)]
    got.append(digest(replace(lat, scale=1.0),
                      rng.integers(-12, 13, size=(4000, n)) / 4.0))
    assert got == QUANTIZER_DIGESTS[lat.family]


# -----------------------------------------------------------------------------
# modulo reduction
# -----------------------------------------------------------------------------

def test_modulo_is_residual():
    rng = np.random.default_rng(5)
    for lat in (cubic_lattice(2), make_lattice("d4"), make_lattice("e8")):
        for _ in range(100):
            x = rng.normal(size=lat.dimension) * 3.0
            assert np.array_equal(modulo(lat, x), x - quantize_nn(lat, x))


def test_modulo_worked_examples():
    c = 1.7
    lat = cubic_lattice(1, spacing=c)
    assert modulo(lat, np.array([1.3 * c]))[0] == pytest.approx(0.3 * c,
                                                                abs=1e-12)
    assert modulo(lat, np.array([4.0 * c]))[0] == 0.0
    inside = np.array([0.31 * c])
    assert np.array_equal(modulo(lat, inside), inside)
    lat4 = make_lattice("d4")
    member = np.array([1.0, -2.0, 0.0, 3.0]) @ lat4.generator
    assert np.array_equal(modulo(lat4, member), np.zeros(4))


def test_modulo_distributive_over_lattice_shifts():
    """[x + lambda] mod L == [x] mod L for lattice points lambda."""
    rng = np.random.default_rng(6)
    for lat in (cubic_lattice(1), cubic_lattice(4), make_lattice("d4"),
                make_lattice("e8")):
        for _ in range(300):
            x = rng.normal(size=lat.dimension) * 2.0
            lam = rng.integers(-3, 4, size=lat.dimension) @ lat.generator
            a = modulo(lat, x + lam)
            b = modulo(lat, x)
            assert np.allclose(a, b, atol=1e-12)


def test_modulo_distributes_over_addition():
    """Reducing one summand first never changes the reduced sum."""
    rng = np.random.default_rng(11)
    for lat in (cubic_lattice(1), cubic_lattice(4), make_lattice("d4"),
                make_lattice("e8")):
        n = lat.dimension
        xs = rng.normal(size=(10_000, n)) * 4.0
        ys = rng.normal(size=(10_000, n)) * 4.0
        a = modulo(lat, modulo(lat, xs) + ys)
        b = modulo(lat, xs + ys)
        assert float(np.max(np.abs(a - b))) <= 1e-12


def test_modulo_idempotent():
    rng = np.random.default_rng(7)
    for lat in (cubic_lattice(3), make_lattice("d4"), make_lattice("e8")):
        for _ in range(100):
            w = modulo(lat, rng.normal(size=lat.dimension) * 3.0)
            assert np.array_equal(modulo(lat, w), w)


@settings(deadline=None, max_examples=50)
@given(hnp.arrays(np.float64, 4,
                  elements=st.floats(min_value=-50.0, max_value=50.0)))
def test_modulo_output_in_cell(x):
    lat = make_lattice("d4")
    w = modulo(lat, x)
    # residual is no farther from 0 than from any nearby lattice point
    _, best_d = brute_nearest(lat, w)
    assert float(np.sum(w * w)) <= best_d + 1e-9


@pytest.mark.parametrize("name", ["z", "d4", "e8"])
@pytest.mark.parametrize("widths", [2.0**60, 3.7e22])
def test_modulo_returns_cell_points_past_float_resolution(name, widths):
    """Past 2**53 cell widths one fold errs by an ulp of the input, many
    cells wide; modulo folds such rows again, so every residue is a cell
    point (3.7e22 is a real residue of a K = 24 campaign).  Cell points are
    checked by distance: the refold's inputs are multiples of an ulp, and
    the E8 ones at 2**60 include exact facet ties, whose tie-break
    quantize_nn(r) may flip by one rounding."""
    lat = scale_to_power(make_lattice(name), 0.37)  # scale about 2
    rng = np.random.default_rng(13)
    # not a multiple of the scale, which x / scale * scale rounds back to x
    x = rng.uniform(1.0, 4.0, (100, lat.dimension)) * widths
    x[::2] *= -1.0
    r = modulo(lat, x)
    assert np.abs(r).max() <= lat.scale * math.sqrt(lat.dimension)
    # rows fold alike one at a time and in a transposed, non-contiguous stack
    assert np.array_equal(modulo(lat, x[1]), r[1])
    stack = x.reshape(2, 50, -1).transpose(1, 0, 2)
    assert np.array_equal(modulo(lat, stack), r.reshape(2, 50, -1).transpose(1, 0, 2))
    for w in r:
        _, best_d = brute_nearest(lat, w)
        assert float(w @ w) <= best_d + 1e-9


# -----------------------------------------------------------------------------
# dither
# -----------------------------------------------------------------------------

@pytest.mark.parametrize(
    "lat", [cubic_lattice(1, spacing=2.0), make_lattice("d4"), make_lattice("e8")],
    ids=["z1", "d4", "e8"],
)
def test_sample_dither_is_a_folded_parallelepiped_draw(lat):
    """sample_dither(size=s) folds one rng.random((*s, n)) @ G: the points
    of single draws from the same stream, in the shape (*s, n)."""
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    drawn = np.stack([sample_dither(lat, rng) for _ in range(6)])
    assert drawn.shape == (6, lat.dimension)
    stacked = sample_dither(lat, twin, (2, 3))
    assert stacked.shape == (2, 3, lat.dimension)
    # equal up to the summation order of u @ G (vector vs matrix product)
    np.testing.assert_allclose(drawn, stacked.reshape(6, -1), rtol=0.0, atol=1e-12)
    assert rng.random() == twin.random()  # n uniforms per point, no more
    assert sample_dither(lat, rng, 4).shape == (4, lat.dimension)
    assert sample_dither(lat, rng, (5, 0)).shape == (5, 0, lat.dimension)


def test_dither_uniform_on_cubic_cell():
    lat = cubic_lattice(1, spacing=2.0)
    rng = np.random.default_rng(8)
    d = sample_dither(lat, rng, 100_000)[:, 0]
    assert d.min() > -1.0 - 1e-12 and d.max() <= 1.0 + 1e-12
    # KS against uniform on (-1, 1]
    p = stats.kstest(d, stats.uniform(loc=-1.0, scale=2.0).cdf).pvalue
    assert p > 0.01
    assert abs(d.mean()) < 3.0 * math.sqrt(lat.second_moment / d.size)
    assert float(np.mean(d ** 2)) == pytest.approx(lat.second_moment,
                                                   rel=0.01)


def test_dither_moments():
    rng = np.random.default_rng(9)
    for lat in (make_lattice("d4"), make_lattice("e8")):
        d = sample_dither(lat, rng, 12_000)
        per_dim = float(np.mean(d ** 2))
        assert per_dim == pytest.approx(lat.second_moment, rel=0.01)
        assert np.abs(d.mean(axis=0)).max() < 3.0 * math.sqrt(
            lat.second_moment / 12_000
        )


def test_crypto_lemma_shift_invariance():
    """[s + dither] mod L is distributed like the dither, for any fixed s."""
    lat = scale_to_power(make_lattice("d4"), 1.0)
    rng = np.random.default_rng(10)
    s = np.array([0.37, -1.91, 0.22, 5.5])
    shifted = modulo(lat, s + sample_dither(lat, rng, 20_000))
    assert float(np.mean(shifted ** 2)) == pytest.approx(1.0, rel=0.01)
    assert np.abs(shifted.mean(axis=0)).max() < 4.0 / math.sqrt(20_000)


# -----------------------------------------------------------------------------
# moments and powers
# -----------------------------------------------------------------------------

def test_normalized_second_moments():
    assert cubic_lattice(1).nsm == pytest.approx(G_CUBIC, abs=0.0)
    assert cubic_lattice(5, spacing=3.0).nsm == pytest.approx(G_CUBIC, abs=0.0)
    assert make_lattice("d4").nsm == pytest.approx(G_D4, rel=1e-12)
    assert make_lattice("e8").nsm == pytest.approx(G_E8, rel=1e-12)


_CONSTRUCTION_PEAK = """
import tracemalloc
from awgn_feedback import make_lattice
tracemalloc.start()
make_lattice("d4")
make_lattice("e8")
print(tracemalloc.get_traced_memory()[1])
"""


def test_family_construction_allocates_little():
    # the moments are closed forms, so building D4/E8 samples nothing; a
    # fresh interpreter keeps earlier constructions in this process from
    # hiding a first-call cost
    out = subprocess.run(
        [sys.executable, "-c", _CONSTRUCTION_PEAK],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert int(out.stdout) < 1 << 20


def test_moments_improve_toward_e8():
    assert cubic_lattice(1).nsm > make_lattice("d4").nsm > make_lattice("e8").nsm
    # all above the sphere bound
    assert make_lattice("e8").nsm > 1.0 / TWO_PI_E


def test_scale_to_power():
    for target in (0.5, 1.0, 7.0):
        lat = scale_to_power(make_lattice("e8"), target)
        assert lat.second_moment == pytest.approx(target, rel=1e-12)
        # nsm is scale-free
        assert lat.nsm == pytest.approx(make_lattice("e8").nsm, rel=1e-12)
    with pytest.raises(ValueError):
        scale_to_power(make_lattice("e8"), 0.0)


def test_scale_to_power_cubic_spacing():
    # a uniform cell of width c has variance c^2/12
    for p in (1.0, 2.5):
        lat = scale_to_power(cubic_lattice(1), p)
        assert lat.scale == pytest.approx(math.sqrt(12.0 * p), rel=1e-12)
    zn = scale_to_power(cubic_lattice(5), 1.0)
    assert zn.scale == pytest.approx(math.sqrt(12.0), rel=1e-12)


def test_looseness_identity_on_cubic():
    # L = mu * G for the scaled-integer lattice, whose G is exactly 1/12: a
    # noise of variance second_moment / L gives mu = V^(2/n) / sigma2 = 12 L
    lat = cubic_lattice(1, spacing=0.4)
    for L in (1.0, 5.0, 80.0):
        sigma2 = lat.second_moment / L
        mu = lat.cell_volume ** (2.0 / lat.dimension) / sigma2
        assert mu * lat.nsm == pytest.approx(L, rel=1e-12)
        assert mu == pytest.approx(12.0 * L, rel=1e-12)


def test_second_moment_scaling_law():
    base = make_lattice("d4")
    scaled = scale_to_power(base, 4.0 * base.second_moment)
    assert scaled.scale == pytest.approx(2.0 * base.scale, rel=1e-12)
    assert scaled.cell_volume == pytest.approx(
        base.cell_volume * 2.0 ** 4, rel=1e-12
    )
