"""Byte-exact regression of e_fb over seeded random operating points.

Each row of ``golden/optimize_points.csv`` holds one point's inputs (forward
SNR, feedback advantage, rate, k_max) and the optimizer's full result, floats
as ``float.hex``.  The points span -5..60 dB forward SNR, 0.5..60 dB feedback
advantage (with a feedback SNR of at least 0.5 dB), R/C in [0, 0.95) and
several k_max, so a change to the search order, the pruning or the kernels
that moves any bit shows here.

Regenerate (only when a change of the bits is intended) with::

    PYTHONPATH=src python tests/test_optimize_golden.py > tests/golden/optimize_points.csv
"""

import random
import sys
import warnings
from pathlib import Path

from awgn_feedback import ChannelParams, capacity, e_fb

GOLDEN = Path(__file__).parent / "golden" / "optimize_points.csv"
HEADER = "snr,dsnr,rate_bits,k_max,e_fb,k_star,l_star,binding,region_valid,k_at_boundary"
K_MAX_CHOICES = (1, 2, 5, 13, 64, 100)


def points():
    """300 seeded (snr, dsnr, rate_bits, k_max) points, R/C = 0 every tenth."""
    rng = random.Random(20261018)
    out = []
    for i in range(300):
        snr_db = rng.uniform(-5.0, 60.0)
        # the feedback link needs an SNR above 1 (0 dB) for any looseness
        dsnr_db = rng.uniform(max(0.5, 0.5 - snr_db), 60.0)
        snr, dsnr = 10.0 ** (snr_db / 10.0), 10.0 ** (dsnr_db / 10.0)
        frac = 0.0 if i % 10 == 0 else rng.uniform(0.0, 0.95)
        out.append((snr, dsnr, frac * capacity(snr), rng.choice(K_MAX_CHOICES)))
    return out


def rows():
    lines = [HEADER]
    for snr, dsnr, rate, k_max in points():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # k_at_boundary
            res = e_fb(ChannelParams.from_snrs(snr, dsnr), rate, k_max)
        lines.append(",".join([
            float.hex(snr), float.hex(dsnr), float.hex(rate), str(k_max),
            float.hex(res.e_fb), str(res.k_star), float.hex(res.l_star),
            res.binding.value, str(res.region_valid), str(res.k_at_boundary),
        ]))
    return "\n".join(lines) + "\n"


def test_optimizer_golden_bytes():
    assert rows() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(rows())
