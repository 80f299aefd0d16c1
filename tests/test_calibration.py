"""Pairwise RF phase calibration against the broadside anchor."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from rsma_isac import anchor_channels, apply_phase_correction, estimate_phase_correction
from rsma_isac.core import ConfigError


def test_impairment_validation():
    with pytest.raises(ConfigError, match="grid"):
        anchor_channels(np.zeros(8))
    with pytest.raises(ConfigError, match="pi"):
        anchor_channels(np.full((2, 4), -np.pi))
    with pytest.raises(ConfigError, match="pi"):
        anchor_channels(np.full((2, 4), 3.5))


def test_estimate_constant_offset():
    offsets = np.zeros((2, 16))
    offsets[1, :] = 0.3
    h = anchor_channels(offsets)
    assert estimate_phase_correction(h) == pytest.approx(-0.3, abs=1e-12)


def test_estimate_no_offset_is_exactly_zero():
    h = anchor_channels(np.zeros((2, 16)))
    assert estimate_phase_correction(h) == 0.0


def test_estimate_zero_mean_offset():
    offsets = np.zeros((2, 16))
    offsets[1, ::2] = 0.2
    offsets[1, 1::2] = -0.2
    h = anchor_channels(offsets)
    assert estimate_phase_correction(h) == pytest.approx(0.0, abs=1e-15)


def test_estimate_needs_two_chains():
    with pytest.raises(ConfigError, match="two chains"):
        estimate_phase_correction(np.ones((3, 8), dtype=complex))
    with pytest.raises(ConfigError, match="two chains"):
        estimate_phase_correction(np.ones(8, dtype=complex))
    with pytest.raises(ConfigError, match="two chains"):
        apply_phase_correction(np.ones((3, 8), dtype=complex), 0.1)


def test_round_trip_restores_alignment():
    offsets = np.zeros((2, 32))
    offsets[0, :] = 0.4
    offsets[1, :] = -0.9
    h = anchor_channels(offsets)
    delta = estimate_phase_correction(h)
    fixed = apply_phase_correction(h, delta)
    assert abs(estimate_phase_correction(fixed)) < 1e-9
    # chain 0 untouched
    assert np.array_equal(fixed[0], h[0])


def test_estimate_survives_branch_cut():
    # offsets straddling +-pi: the arithmetic mean of wrapped phase
    # differences would land near zero, the circular mean stays at pi
    offsets = np.zeros((2, 16))
    offsets[1, ::2] = np.pi - 1e-3
    offsets[1, 1::2] = -np.pi + 1e-3
    h = anchor_channels(offsets)
    delta = estimate_phase_correction(h)
    assert abs(delta) == pytest.approx(np.pi, abs=1e-12)
    fixed = apply_phase_correction(h, delta)
    assert abs(estimate_phase_correction(fixed)) < 1e-9


@st.composite
def _demo_offsets(draw):
    """Phase grids like calibrate-demo's: a constant per chain plus small ripple."""
    nc = draw(st.integers(1, 64))
    base = draw(hnp.arrays(float, (2, 1), elements=st.floats(
        -np.pi / 2, np.pi / 2, exclude_min=True, exclude_max=True)))
    ripple = draw(hnp.arrays(float, (2, nc), elements=st.floats(-0.05, 0.05)))
    return base + ripple


@given(
    offsets=_demo_offsets(),
    beta=st.floats(1e-3, 1e3),
    theta=hnp.arrays(float, 64, elements=st.floats(-np.pi, np.pi)),
)
def test_estimate_ignores_a_shared_factor(offsets, beta, theta):
    # An anchor gain and a delay ramp multiply both chains alike: the
    # pairwise estimate cannot see them, so the anchor model needs neither.
    h = anchor_channels(offsets)
    shared = beta * np.exp(1j * theta[: h.shape[1]])
    moved = estimate_phase_correction(h * shared) - estimate_phase_correction(h)
    assert abs(np.angle(np.exp(1j * moved))) <= 1e-9
