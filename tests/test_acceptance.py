"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each test prints its verdict through capsys.disabled() so the line shows up
in normal pytest runs, then asserts.  Criteria needing large Monte-Carlo
campaigns share module-scoped fixtures.
"""

import csv
import math
import time

import pytest
from scipy import stats

from awgn_feedback import (
    ChannelParams,
    SchemeConfig,
    capacity,
    critical_rate,
    cubic_lattice,
    e_fb,
    effective_snr,
    estimate_error_prob,
    expurgation_rate,
    gallager_exp,
    high_snr_bound,
    poltyrev_exponent,
    sphere_packing_exp,
)
from awgn_feedback.cli import main

P20_30 = ChannelParams.from_snrs(100.0, 1000.0)

# (R/C, E_FB/snr) read off the paper's 20/30 dB feedback-exponent figure;
# the emitted curve must pass each within 2%.
FB_SPOTS = [
    (0.0, 3.64162),
    (0.330541, 0.655001),
    (0.550901, 0.195192),
]

# A fourth spot read off the same figure, at the last feedback row of the
# fig-1 grid.  No (K, L) of the defining maximization reaches it: it lies
# about 5% above the bracket that _e_fb_bracket proves at this rate, so the
# emitted value is checked against that bracket instead, and the gap between
# this plot value and the bracket is asserted and printed.  The emitted curve
# passes 0.00741556 at R/C ~ 0.8971, 0.3% to the left, where the plotted
# curve is steep.
FB_SPOT_0_9 = (0.899805, 0.00741556)


def _e_fb_bracket(params, rate_bits, k_max=64, grid=2000):
    """Bracket (lo, hi) on the optimum that e_fb defines, plus soundness faults.

    The optimum is max over integer K in [1, k_max] and L in [1, bsnr) of
    min(decode, modulo) / (2K), with the decode exponent taken at the SNR
    snr * g**(K-1), g = 1 + snr (1 - L/bsnr) / (1 + L/dsnr), and the modulo
    exponent poltyrev_exponent(L).  The scan uses grid + 1 log-spaced L from
    1 to bsnr and no part of the package optimizer.

    Each grid point below bsnr is feasible, so the best of them is ``lo``.
    The decode exponent is non-increasing in L (g falls with L and the
    exponent rises with SNR) and the modulo exponent non-decreasing, so on a
    cell [L_i, L_{i+1}] the objective is at most
    min(decode(L_i), modulo(L_{i+1})) and the best cell is ``hi``.

    The returned list names every grid step that breaks either monotonicity.
    Decode values below 2K * lo cannot reach the bracket, so the decode is
    clipped there before the check.  That clip matters: past an effective
    SNR of ~1e16 the random-coding intercept loses its "+2" to rounding, and
    the decode, then under one nat, rises by up to half a nat where it meets
    the sphere-packing branch.
    """
    snr, bsnr, dsnr = params.snr, params.bsnr, params.dsnr
    ls = [bsnr ** (i / grid) for i in range(grid + 1)]
    growth = [1.0 + snr * (1.0 - L / bsnr) / (1.0 + L / dsnr) for L in ls]
    mod = [poltyrev_exponent(L) for L in ls]
    faults = [f"modulo falls at L={b:.6g}"
              for a, b, ma, mb in zip(ls, ls[1:], mod, mod[1:]) if mb < ma]
    lo = hi = 0.0
    decs = {}
    for k in range(1, k_max + 1):
        rate = k * rate_bits
        dec = []
        for g in growth:
            s = snr * g ** (k - 1)
            dec.append(gallager_exp(s, rate)[0] if rate < capacity(s) else 0.0)
        decs[k] = dec
        lo = max(lo, max(map(min, dec[:-1], mod[:-1])) / (2 * k))
        hi = max(hi, max(map(min, dec[:-1], mod[1:])) / (2 * k))
    for k, dec in decs.items():
        floor = 2 * k * lo
        faults += [f"decode rises at K={k}, L={L:.6g}"
                   for L, a, b in zip(ls[1:], dec, dec[1:])
                   if max(b, floor) > max(a, floor)]
    return lo, hi, faults


def verdict(capsys, num, name, failures, extra=""):
    tag = "PASS" if not failures else "FAIL"
    detail = f" ({'; '.join(failures)})" if failures else (
        f" ({extra})" if extra else ""
    )
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {name}: {tag}{detail}")
    assert not failures, "; ".join(failures)


# -----------------------------------------------------------------------------
# shared campaigns
# -----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def noisy_campaign():
    """1e5 trials of the noisy-feedback protocol at 20/30 dB, n=1, K=3."""
    cfg = SchemeConfig(
        params=P20_30, rounds=3, looseness=4.0,
        lattice=cubic_lattice(1), rate_bits=0.5, master_seed=20260816,
    )
    return cfg, estimate_error_prob(cfg, 100000)


@pytest.fixture(scope="module")
def noiseless_campaign():
    """1e5 trials with an ideal feedback link (classic scheme)."""
    params = ChannelParams(p=1.0, p_tilde=1.0, sigma2=0.01, sigma2_tilde=0.0)
    cfg = SchemeConfig(
        params=params, rounds=3, looseness=0.0,
        lattice=cubic_lattice(1), rate_bits=0.5, master_seed=20260816,
    )
    return cfg, estimate_error_prob(cfg, 100000)


# -----------------------------------------------------------------------------
# criteria
# -----------------------------------------------------------------------------

def test_criterion_1_curve_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    out = tmp_path / "curves.csv"
    assert main([
        "exponents", "--snr-db", "20", "--dsnr-db", "30", "--fig1",
        "--out", str(out),
    ]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    by_x = {float(r["rate_over_capacity"]): r for r in rows}

    def nearest(x_ref):
        return by_x[min(by_x, key=lambda v: abs(v - x_ref))]

    failures = []
    for x_ref, e_ref in FB_SPOTS:
        got = float(nearest(x_ref)["e_fb_norm"])
        rel = (got - e_ref) / e_ref
        if abs(rel) > 0.02:
            failures.append(
                f"E_FB/snr at R/C={x_ref}: emitted {got:.8f} vs plotted "
                f"{e_ref}, off {rel:+.2%} (tolerance 2%)"
            )
    row0 = by_x[0.0]
    if abs(float(row0["e_r_norm"]) - 0.25) > 1e-6:
        failures.append(f"E_r/snr at 0 = {row0['e_r_norm']} != 0.25")
    if abs(float(row0["e_sp_norm"]) - 0.5) > 1e-6:
        failures.append(f"E_sp/snr at 0 = {row0['e_sp_norm']} != 0.5")
    if not 0.0 <= float(by_x[1.0]["e_sp_norm"]) <= 1e-12:
        failures.append(f"E_sp/snr at 1 = {by_x[1.0]['e_sp_norm']} not <= 1e-12")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")

    x_ref, e_plot = FB_SPOT_0_9
    row = nearest(x_ref)
    got = float(row["e_fb_norm"])
    lo, hi, faults = _e_fb_bracket(P20_30, float(row["rate_bits"]))
    lo, hi = lo / P20_30.snr, hi / P20_30.snr
    failures += faults
    if not lo <= got <= hi:
        failures.append(
            f"E_FB/snr at R/C={x_ref}: emitted {got:.8f} outside the optimum "
            f"bracket [{lo:.8f}, {hi:.8f}]"
        )
    gap = (e_plot - hi) / hi
    if gap <= 0.02:
        failures.append(
            f"plot value {e_plot} at R/C={x_ref} is only {gap:+.2%} above the "
            f"bracket's upper end {hi:.8f}; check it as a plot spot again"
        )

    verdict(capsys, 1, "curve reproduction at 20/30 dB", failures,
            extra=f"{elapsed:.2f}s; at R/C={x_ref} emitted {got:.8f} in "
                  f"[{lo:.8f}, {hi:.8f}], plot value {e_plot} is "
                  f"{gap:+.2%} above it")


def test_criterion_2_exponent_structure(capsys):
    start = time.perf_counter()
    failures = []

    for x0 in (2.0, 4.0):
        jump = abs(poltyrev_exponent(x0 + 1e-12) - poltyrev_exponent(x0))
        if jump >= 1e-9:
            failures.append(f"lattice exponent jumps {jump:.2e} at {x0}")

    for snr_db in [x / 2.0 for x in range(-20, 81)]:
        snr = 10.0 ** (snr_db / 10.0)
        cap = capacity(snr)
        r_cr = critical_rate(snr)
        r_ex = expurgation_rate(snr)
        for r0 in (r_ex, r_cr):
            below = gallager_exp(snr, r0 * (1.0 - 1e-9))[0]
            above = gallager_exp(snr, min(r0 * (1.0 + 1e-9), cap))[0]
            if abs(above - below) / below >= 1e-6:
                failures.append(
                    f"E_r discontinuity {abs(above-below)/below:.2e} "
                    f"at snr {snr_db} dB rate {r0:.3f}"
                )
        for i in range(0, 41):
            rate = cap * i / 40.0
            sp = sphere_packing_exp(snr, rate)
            gal = gallager_exp(snr, rate)[0]
            if sp < gal - 1e-12:
                failures.append(f"E_sp < E_r at snr {snr_db} dB R {rate:.3f}")
            if rate >= r_cr and abs(sp - gal) > 1e-9 * max(sp, 1e-300):
                failures.append(
                    f"E_sp != E_r above critical rate at snr {snr_db} dB"
                )
        if failures:
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")

    verdict(capsys, 2, "exponent structure over -10..40 dB", failures,
            extra=f"{elapsed:.2f}s")


def test_criterion_3_round_count_consistency(capsys):
    k_star = e_fb(P20_30, 0.0).k_star
    approx = 0.78 * math.log(1000.0 / 2.0)
    allowed = {math.floor(approx), math.ceil(approx), math.ceil(approx) + 1}
    failures = []
    if k_star not in allowed:
        failures.append(f"argmax K = {k_star} not in {sorted(allowed)}")
    verdict(capsys, 3, "zero-rate round count near 0.78 ln(dsnr/2)", failures,
            extra=f"K*={k_star}, closed form {approx:.2f}")


def test_criterion_4_bound_ordering(capsys):
    failures = []
    gaps = []
    for snr_db in (30.0, 40.0):
        for dsnr_db in (40.0, 50.0):
            p = ChannelParams.from_snrs(
                10.0 ** (snr_db / 10.0), 10.0 ** (dsnr_db / 10.0)
            )
            exact = e_fb(p, 0.0).e_fb
            bound = max(high_snr_bound(p, 0.0, k) for k in range(2, 65))
            gap = (exact - bound) / exact
            gaps.append(f"{snr_db:.0f}/{dsnr_db:.0f} dB {gap:.1%}")
            if bound > exact:
                failures.append(
                    f"bound {bound:.4g} exceeds optimum {exact:.4g} "
                    f"at {snr_db}/{dsnr_db} dB"
                )
            if gap >= 0.35:
                failures.append(
                    f"gap {gap:.1%} >= 35% at {snr_db}/{dsnr_db} dB"
                )
    verdict(capsys, 4, "closed-form bound under the optimum", failures,
            extra="gaps " + ", ".join(gaps))


def test_criterion_5_coupling_exactness(noisy_campaign, capsys):
    _, s = noisy_campaign
    copies = 2 * s.trials
    mismatches = copies - s.union_agreement
    events = sum(map(sum, s.alias_counts))
    failures = []
    if mismatches != 0:
        failures.append(
            f"{mismatches} union-indicator mismatches over {copies} copies"
        )
    if s.unaliased_splits != 0:
        failures.append(
            f"{s.unaliased_splits} copies decode differently without aliasing"
        )
    if events == 0:
        failures.append("no aliasing events occurred; exactness check vacuous")
    verdict(capsys, 5, "aliasing-union indicator coupling", failures,
            extra=f"{copies} copies, {events} aliasing events, 0 mismatches, "
                  f"{s.unaliased_splits} unaliased decode splits")


def test_criterion_6_snr_recursion(noisy_campaign, noiseless_campaign, capsys):
    failures = []
    reports = []
    for label, (cfg, s) in (("noisy", noisy_campaign),
                            ("noiseless-fb", noiseless_campaign)):
        if label == "noisy":
            pred = cfg.params.p / effective_snr(
                cfg.params, cfg.looseness, cfg.rounds
            )
        else:
            snr = cfg.params.snr
            pred = cfg.params.p / (snr * (1.0 + snr) ** (cfg.rounds - 1))
        se = pred * math.sqrt(2.0 / s.no_alias_dims)
        dev = abs(s.sigma_k2_hat - pred) / se
        reports.append(f"{label} {dev:.2f} SE")
        if dev > 3.0:
            failures.append(
                f"{label}: sigma_K^2 {s.sigma_k2_hat:.4e} vs predicted "
                f"{pred:.4e} is {dev:.1f} standard errors off"
            )
    verdict(capsys, 6, "effective-SNR recursion", failures,
            extra=", ".join(reports))


def test_criterion_7_power_constraints(noisy_campaign, capsys):
    cfg, s = noisy_campaign
    failures = []
    if s.ff_power > cfg.params.p * 1.01:
        failures.append(f"feedforward power {s.ff_power:.4f} > P within 1%")
    fb_dev = abs(s.fb_power - cfg.params.p_tilde) / cfg.params.p_tilde
    if fb_dev > 0.01:
        failures.append(
            f"feedback power {s.fb_power:.4f} deviates {fb_dev:.2%} from P~"
        )
    verdict(capsys, 7, "power accounting", failures,
            extra=f"ff {s.ff_power:.4f} <= P, fb off {fb_dev:.3%}")


def test_criterion_8_pam_oracle(capsys):
    start = time.perf_counter()
    cfg = SchemeConfig(
        params=P20_30, rounds=1, looseness=40.0,
        lattice=cubic_lattice(1), rate_bits=2.0, master_seed=20260816,
    )
    trials = 1_000_000
    s = estimate_error_prob(cfg, trials)
    m = cfg.m_codewords
    sigma = math.sqrt(cfg.params.sigma2)
    pred = 2.0 * (1.0 - 1.0 / m) * stats.norm.sf(cfg.pam_step / (2.0 * sigma))
    copies = 2 * trials
    se = math.sqrt(pred * (1.0 - pred) / copies)
    dev = abs(s.p_e - pred) / se
    elapsed = time.perf_counter() - start

    failures = []
    if dev > 3.0:
        failures.append(
            f"PAM error rate {s.p_e:.6f} vs closed form {pred:.6f} "
            f"is {dev:.1f} sigma off"
        )
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    verdict(capsys, 8, "PAM decode against the closed form", failures,
            extra=f"{dev:.2f} sigma, {elapsed:.1f}s")
