"""Modulo-lattice transmission of a source with receiver side information.

The transmitter holds Q and the receiver holds J; both know the dither V.
Sending X = [beta*(J + Q) + V] mod lattice and folding the channel output
back with the same dither and side information leaves U = [beta*Q + Z] mod
lattice, so the side information drops out exactly and the receiver sees the
scaled source plus channel noise whenever that sum stays inside the
fundamental cell.  Leaving the cell is the aliasing event; callers detect it
by comparing U against the known beta*Q + Z in tests and simulations.

The receiver folds the channel output as received (a channel-estimator
coefficient of 1, the only one the scheme uses); the receiver-side output
scaling drops out of every quantity of interest and is omitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattices import Lattice, modulo

__all__ = ["JsccParams", "wz_encode", "wz_receive"]


@dataclass(frozen=True)
class JsccParams:
    """Source scale and lattice for one modulo-lattice link."""

    beta: float
    lattice: Lattice

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be finite and positive, got {self.beta!r}")


def wz_encode(q, j, v, params: JsccParams) -> np.ndarray:
    """Channel inputs [beta*(j + q) + v] mod lattice, points along the last
    axis of shape (..., n).

    Uniform on the fundamental cell over the dither draw, hence transmit
    power equals the lattice second moment regardless of q and j.
    """
    q, j, v = (np.asarray(a, dtype=float) for a in (q, j, v))
    return modulo(params.lattice, params.beta * (j + q) + v)


def wz_receive(y, v, j, params: JsccParams) -> np.ndarray:
    """Receiver residues [y - v - beta*j] mod lattice, points along the
    last axis of shape (..., n).

    Equals [beta*q + z] mod lattice for channel noise z, and is exactly
    beta*q + z whenever that vector lies in the fundamental cell.
    """
    y, v, j = (np.asarray(a, dtype=float) for a in (y, v, j))
    return modulo(params.lattice, y - v - params.beta * j)
