"""Pairwise RF-chain phase calibration against a broadside anchor.

Each transmit chain adds its own hardware phase to every subcarrier. An
anchor receiver at a known direction observes all chains, and the average
phase difference between chains gives a single correction that realigns
the array for beamforming. Only the two-element case is supported; the
hardware this models calibrates element 1 against element 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ArrayGeometry, ConfigError, steering_vector


@dataclass(frozen=True)
class RfImpairment:
    """Per-chain, per-subcarrier hardware phases plus anchor placement."""

    phase_offsets: np.ndarray
    anchor_delay_bins: int
    anchor_angle_deg: float

    def __post_init__(self) -> None:
        p = np.asarray(self.phase_offsets, dtype=float)
        if p.ndim != 2:
            raise ConfigError("phase_offsets must be an (n_tx, n_subcarriers) grid")
        if np.any(p <= -np.pi) or np.any(p > np.pi):
            raise ConfigError("phase offsets must lie in (-pi, pi]")
        object.__setattr__(self, "phase_offsets", p)
        if self.anchor_delay_bins < 0 or self.anchor_delay_bins >= p.shape[1]:
            raise ConfigError("anchor_delay_bins must lie in [0, n_subcarriers)")


def anchor_channels(
    imp: RfImpairment, geom: ArrayGeometry, beta: float
) -> np.ndarray:
    """Channel from each chain to the anchor, shape (n_tx, n_subcarriers).

    Chain g on subcarrier k sees the anchor delay ramp, its own hardware
    phase, and the geometric steering phase toward the anchor.
    """
    n_tx, nc = imp.phase_offsets.shape
    if n_tx != geom.n_tx:
        raise ConfigError("impairment grid and array geometry disagree on n_tx")
    k = np.arange(nc)
    delay = np.exp(2j * np.pi * imp.anchor_delay_bins * k / nc)
    steer = steering_vector(geom, imp.anchor_angle_deg)
    return beta * delay[None, :] * np.exp(1j * imp.phase_offsets) * steer[:, None]


def estimate_phase_correction(anchor: np.ndarray) -> float:
    """Average phase difference between chain 0 and chain 1 at the anchor.

    Returns delta_phi, the circular mean over subcarriers of
    angle(h_0[k]) - angle(h_1[k]). The phasor-sum average keeps offsets
    near the +-pi branch cut from corrupting the estimate; for small
    offsets it coincides with the plain arithmetic mean. The correction to
    apply to chain 1 is the negative of this value (a phase shift of -x
    multiplies the signal by exp(+jx)).
    """
    a = np.asarray(anchor)
    if a.ndim != 2 or a.shape[0] != 2:
        raise ConfigError("pairwise calibration needs exactly two chains")
    return float(np.angle(np.sum(a[0] * np.conj(a[1]))))


def apply_phase_correction(anchor: np.ndarray, delta_phi: float) -> np.ndarray:
    """Realign chain 1 with chain 0 by rotating it through delta_phi."""
    a = np.asarray(anchor)
    if a.ndim != 2 or a.shape[0] != 2:
        raise ConfigError("pairwise calibration needs exactly two chains")
    out = a.copy()
    out[1] = out[1] * np.exp(1j * delta_phi)
    return out
