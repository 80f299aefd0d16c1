"""Pairwise RF-chain phase calibration against a broadside anchor.

Each transmit chain adds its own hardware phase to every subcarrier. An
anchor receiver at broadside observes all chains, and the average
phase difference between chains gives a single correction that realigns
the array for beamforming. Only the two-element case is supported; the
hardware this models calibrates element 1 against element 0.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError


def anchor_channels(phase_offsets: np.ndarray) -> np.ndarray:
    """Channel from each chain to the anchor, shape (n_tx, n_subcarriers).

    The anchor sits at broadside and delay 0: there the array response is
    1 on every element and the delay ramp is 1 on every subcarrier, so
    chain g on subcarrier k sees only its own hardware phase.
    """
    p = np.asarray(phase_offsets, dtype=float)
    if p.ndim != 2:
        raise ConfigError("phase_offsets must be an (n_tx, n_subcarriers) grid")
    if np.any(p <= -np.pi) or np.any(p > np.pi):
        raise ConfigError("phase offsets must lie in (-pi, pi]")
    return np.exp(1j * p)


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
