"""The shared argument rule, applied through every public entry point.

A real argument takes any real number except a bool and is used as a float;
a count takes any integer except a bool and is used as an int.  Anything
else, or a value out of range, raises ValueError naming the argument.
"""

import math

import numpy as np
import pytest

from awgn_feedback import (
    ChannelParams,
    Lattice,
    SchemeConfig,
    balance_looseness,
    capacity,
    cubic_lattice,
    e_fb,
    effective_snr,
    estimate_error_prob,
    gallager_exp,
    high_snr_bound,
    poltyrev_exponent,
    region_assumptions_hold,
    run_trial,
    sample_dither,
    scale_to_power,
    sphere_packing_exp,
    wilson_interval,
)

P = ChannelParams.from_snrs(100.0, 1000.0)


def _config(**kw):
    base = dict(params=P, rounds=3, looseness=40.0, lattice=cubic_lattice(1),
                rate_bits=0.5, master_seed=99)
    return SchemeConfig(**{**base, **kw})


CFG = _config()

# (call with the argument under test, name in the message, a valid value, a
# value out of range); the valid values are exact in float32
REAL, COUNT = "real", "count"
CASES = {
    "capacity-snr": (capacity, "snr", REAL, 100.0, 0.0),
    "gallager_exp-snr": (lambda v: gallager_exp(v, 0.5), "snr", REAL, 100.0, -1.0),
    "gallager_exp-rate": (lambda v: gallager_exp(100.0, v), "rate", REAL, 0.5, -0.5),
    "sphere_packing_exp-rate": (lambda v: sphere_packing_exp(100.0, v), "rate",
                                REAL, 0.5, -0.5),
    "poltyrev_exponent-x": (poltyrev_exponent, "normalized VNR x", REAL, 3.0, 0.0),
    "effective_snr-looseness": (lambda v: effective_snr(P, v, 3), "looseness",
                                REAL, 40.0, 0.5),
    "effective_snr-rounds": (lambda v: effective_snr(P, 40.0, v), "rounds",
                             COUNT, 3, 0),
    "e_fb-rate": (lambda v: e_fb(P, v), "rate", REAL, 0.5, -0.5),
    "e_fb-k_max": (lambda v: e_fb(P, 0.5, v), "k_max", COUNT, 8, 0),
    "e_fb-k_first": (lambda v: e_fb(P, 0.5, 8, k_first=v), "k_first", COUNT, 3, 0),
    "ChannelParams-p": (lambda v: ChannelParams(v, 1.0, 0.25, 0.5), "p",
                        REAL, 2.0, 0.0),
    "ChannelParams-sigma2_tilde": (lambda v: ChannelParams(1.0, 1.0, 0.25, v),
                                   "sigma2_tilde", REAL, 0.5, -0.5),
    "Lattice-dimension": (lambda v: Lattice("cubic", v, 1.0), "dimension",
                          COUNT, 3, 0),
    "Lattice-scale": (lambda v: Lattice("d4", 4, v), "scale", REAL, 0.5, 0.0),
    "scale_to_power-target_power": (lambda v: scale_to_power(cubic_lattice(2), v),
                                    "target_power", REAL, 2.0, 0.0),
    "sample_dither-size": (
        lambda v: sample_dither(cubic_lattice(2), np.random.default_rng(0), v),
        "size", COUNT, 3, -1),
    "SchemeConfig-rounds": (lambda v: _config(rounds=v), "rounds", COUNT, 2, 0),
    "SchemeConfig-looseness": (lambda v: _config(looseness=v), "looseness",
                               REAL, 40.0, 0.5),
    "SchemeConfig-rate_bits": (lambda v: _config(rate_bits=v), "rate",
                               REAL, 0.5, -0.5),
    "SchemeConfig-master_seed": (lambda v: _config(master_seed=v), "master_seed",
                                 COUNT, 7, -1),
    "estimate_error_prob-trials": (lambda v: estimate_error_prob(CFG, v), "trials",
                                   COUNT, 3, 0),
    "run_trial-trial_index": (lambda v: run_trial(CFG, v), "trial_index",
                              COUNT, 5, -1),
    "wilson_interval-successes": (lambda v: wilson_interval(v, 10), "successes",
                                  COUNT, 3, -1),
    "wilson_interval-total": (lambda v: wilson_interval(3, v), "total",
                              COUNT, 10, 0),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_bad_argument_raises_value_error_naming_it(case):
    call, name, _, good, out_of_range = case
    call(good)
    bad_values = (None, "1", True, math.nan, math.inf, out_of_range)
    if name == "k_first":
        # None asks e_fb for its own first round count, with the same result
        assert repr(call(None)) == repr(call(good))
        bad_values = bad_values[1:]
    for bad in bad_values:
        with pytest.raises(ValueError, match=name):
            call(bad)


# counts with no stated upper bound that reach float arithmetic
HUGE_COUNTS = {
    "balance_looseness-rounds": (lambda v: balance_looseness(P, 0.5, v), "rounds"),
    "high_snr_bound-rounds": (lambda v: high_snr_bound(P, 0.5, v), "rounds"),
    "region_assumptions_hold-rounds": (
        lambda v: region_assumptions_hold(P, 0.5, v, 40.0), "rounds"),
    "wilson_interval-total": (lambda v: wilson_interval(1, v), "total"),
    "Lattice-dimension": (lambda v: Lattice("cubic", v, 1.0).nsm, "dimension"),
}


@pytest.mark.parametrize("case", HUGE_COUNTS.values(), ids=HUGE_COUNTS.keys())
def test_count_past_the_float_range_raises_value_error_naming_it(case):
    """An int past the float range raises ValueError, not the OverflowError
    of its conversion, and the message does not print all its digits."""
    call, name = case
    with pytest.raises(ValueError, match=f"^{name} must be at most the largest float") as e:
        call(10**400)
    assert len(str(e.value)) < 100


def test_wilson_interval_takes_every_campaign_copy_count():
    """estimate_error_prob runs up to 2**63 trials, 2**64 copies."""
    lo, hi = wilson_interval(1, 2**64)
    assert 0.0 < lo < hi < 1e-18


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_numpy_scalars_give_the_same_bits(case):
    """repr shows every float bit and every stored type (np.int64(3) != 3)."""
    call, _, kind, good, _ = case
    twins = ((np.float32(good), np.float64(good), np.int64(good)) if kind == REAL
             else (np.int64(good), np.int32(good), np.uint16(good)))
    if kind == REAL and not float(good).is_integer():
        twins = twins[:2]
    expected = repr(call(good))
    for twin in twins:
        assert repr(call(twin)) == expected


# arguments where infinity carries a meaning (a noiseless link for
# from_snrs, a looseness outside the closed-form domain for
# region_assumptions_hold): any real passes the type rule, nothing else does
NUMBER_CASES = {
    "from_snrs-snr": (lambda v: ChannelParams.from_snrs(v, 10.0), "snr", 100.0),
    "from_snrs-dsnr": (lambda v: ChannelParams.from_snrs(100.0, v), "dsnr", 10.0),
    "region_assumptions_hold-looseness": (
        lambda v: region_assumptions_hold(P, 0.0, 2, v), "looseness", 40.0),
}


@pytest.mark.parametrize("case", NUMBER_CASES.values(), ids=NUMBER_CASES.keys())
def test_bad_number_raises_value_error_naming_it(case):
    call, name, good = case
    expected = repr(call(good))
    for twin in (np.float32(good), np.float64(good), np.int64(good)):
        assert repr(call(twin)) == expected
    call(math.inf)
    for bad in (None, "1", True):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            call(bad)
