"""Tests for the modulo-lattice side-information link."""

import math

import numpy as np
import pytest
from scipy import stats

from awgn_feedback import (
    JsccParams,
    cubic_lattice,
    d4_lattice,
    e8_lattice,
    modulo,
    sample_dither,
    scale_to_power,
    wz_encode,
    wz_receive,
)


def test_alpha_c_pinned():
    with pytest.raises(ValueError):
        JsccParams(beta=0.0, lattice=cubic_lattice(1))


def test_shape_validation():
    params = JsccParams(beta=1.0, lattice=d4_lattice())
    with pytest.raises(ValueError):
        wz_encode(np.zeros(3), np.zeros(4), np.zeros(4), params)
    with pytest.raises(ValueError):
        wz_receive(np.zeros(4), np.zeros(5), np.zeros(4), params)


def test_side_information_cancels():
    """The receiver residue does not depend on j (up to float rounding)."""
    lat = cubic_lattice(1, spacing=4.0)
    params = JsccParams(beta=0.3, lattice=lat)
    rng = np.random.default_rng(21)
    q = np.array([0.8])
    v = sample_dither(lat, rng)
    z = np.array([0.05])
    ref = None
    for j_int in range(-500, 500):
        j = np.array([float(j_int)])
        y = wz_encode(q, j, v, params) + z
        u = wz_receive(y, v, j, params)
        if ref is None:
            ref = u
        else:
            assert np.allclose(u, ref, atol=1e-10)


def test_side_information_cancels_on_structured_lattices():
    rng = np.random.default_rng(22)
    for lat in (d4_lattice(), e8_lattice()):
        params = JsccParams(beta=0.5, lattice=scale_to_power(lat, 2.0))
        n = lat.dimension
        q = rng.normal(size=n) * 0.1
        v = sample_dither(params.lattice, rng)
        z = rng.normal(size=n) * 0.05
        base = None
        for _ in range(100):
            j = rng.normal(size=n) * 10.0
            u = wz_receive(wz_encode(q, j, v, params) + z, v, j, params)
            if base is None:
                base = u
            else:
                assert np.allclose(u, base, atol=1e-10)


def test_zero_inputs_pass_dither_through():
    for lat in (cubic_lattice(1, spacing=3.0), d4_lattice()):
        params = JsccParams(beta=0.8, lattice=lat)
        rng = np.random.default_rng(27)
        zero = np.zeros(lat.dimension)
        for _ in range(50):
            v = sample_dither(lat, rng)
            assert np.array_equal(wz_encode(zero, zero, v, params), v)


def test_noiseless_receive_recovers_scaled_source():
    """With no channel noise, U = beta*q whenever beta*q is in the cell."""
    lat = cubic_lattice(3, spacing=6.0)
    params = JsccParams(beta=0.4, lattice=lat)
    rng = np.random.default_rng(28)
    for _ in range(200):
        q = rng.normal(size=3)
        j = rng.normal(size=3) * 30.0
        v = sample_dither(lat, rng)
        y = wz_encode(q, j, v, params)
        u = wz_receive(y, v, j, params)
        assert np.allclose(u, params.beta * q, atol=1e-11)


def test_residue_recovers_scaled_source_plus_noise():
    """Inside the cell, U == beta*q + z with no distortion."""
    lat = cubic_lattice(2, spacing=10.0)
    params = JsccParams(beta=1.0, lattice=lat)
    rng = np.random.default_rng(23)
    for _ in range(200):
        q = rng.normal(size=2)
        j = rng.normal(size=2) * 50.0
        v = sample_dither(lat, rng)
        z = rng.normal(size=2) * 0.1
        target = params.beta * q + z
        assert np.max(np.abs(target)) < 5.0  # stays inside the cell
        u = wz_receive(wz_encode(q, j, v, params) + z, v, j, params)
        assert np.allclose(u, target, atol=1e-10)


def test_residue_distribution_independent_of_dither():
    """Aliasing depends on beta*q + z only, not on the dither draw."""
    lat = cubic_lattice(1, spacing=2.0)
    params = JsccParams(beta=1.0, lattice=lat)
    rng = np.random.default_rng(24)
    q = np.array([0.9])
    z = np.array([0.3])  # q + z outside the cell half-width 1.0
    j = np.array([3.0])
    for _ in range(50):
        v = sample_dither(lat, rng)
        u = wz_receive(wz_encode(q, j, v, params) + z, v, j, params)
        # wrapped to q + z - 2
        assert u[0] == pytest.approx(-0.8, abs=1e-12)


def test_encode_power_is_cell_uniform():
    lat = scale_to_power(e8_lattice(), 1.0)
    params = JsccParams(beta=0.7, lattice=lat)
    rng = np.random.default_rng(25)
    q = rng.normal(size=8)
    j = rng.normal(size=8) * 4.0
    xs = wz_encode(q, j, sample_dither(lat, rng, 10_000), params)
    assert float(np.mean(xs ** 2)) == pytest.approx(1.0, rel=0.01)


def test_one_dim_aliasing_rate_matches_gaussian_tail():
    """P(alias) = 2 Q(c / (2 sigma)) for a centered source on a 1-D cell."""
    c = 2.0
    sigma = 0.55
    lat = cubic_lattice(1, spacing=c)
    params = JsccParams(beta=1.0, lattice=lat)
    rng = np.random.default_rng(26)
    trials = 40000
    q = np.zeros(1)
    j = np.zeros(1)
    z = rng.normal(size=(trials, 1)) * sigma
    v = sample_dither(lat, rng, trials)
    u = wz_receive(wz_encode(q, j, v, params) + z, v, j, params)
    alias = int(np.count_nonzero(np.abs(u - z) > 1e-9))
    pred = 2.0 * stats.norm.sf(c / (2.0 * sigma))
    se = math.sqrt(pred * (1.0 - pred) / trials)
    assert abs(alias / trials - pred) <= 3.0 * se
