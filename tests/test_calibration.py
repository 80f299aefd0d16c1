"""Pairwise RF phase calibration against a known anchor."""

import math

import numpy as np
import pytest

from rsma_isac import (
    ArrayGeometry,
    RfImpairment,
    anchor_channels,
    apply_phase_correction,
    estimate_phase_correction,
)
from rsma_isac.core import ConfigError

_GEOM = ArrayGeometry(2, 0.5)


def test_impairment_validation():
    with pytest.raises(ConfigError, match="grid"):
        RfImpairment(np.zeros(8), 0, 0.0)
    with pytest.raises(ConfigError, match="pi"):
        RfImpairment(np.full((2, 4), -np.pi), 0, 0.0)
    with pytest.raises(ConfigError, match="pi"):
        RfImpairment(np.full((2, 4), 3.5), 0, 0.0)
    with pytest.raises(ConfigError, match="anchor_delay_bins"):
        RfImpairment(np.zeros((2, 4)), 4, 0.0)
    with pytest.raises(ConfigError, match="anchor_delay_bins"):
        RfImpairment(np.zeros((2, 4)), -1, 0.0)


def test_anchor_channels_trivial_case():
    h = anchor_channels(RfImpairment(np.zeros((2, 8)), 0, 0.0), _GEOM, beta=0.25)
    assert np.array_equal(h, np.full((2, 8), 0.25 + 0j))


def test_anchor_channels_steering_phase():
    imp = RfImpairment(np.zeros((2, 8)), 0, 90.0)
    h = anchor_channels(imp, _GEOM, beta=1.0)
    # chain 1 sits half a wavelength closer to an endfire anchor
    assert np.allclose(h[1] / h[0], -1.0, atol=1e-12)


def test_anchor_channels_delay_ramp():
    imp = RfImpairment(np.zeros((2, 8)), 2, 0.0)
    h = anchor_channels(imp, _GEOM, beta=1.0)
    k = np.arange(8)
    assert np.allclose(h[0], np.exp(2j * np.pi * 2 * k / 8), atol=1e-12)
    assert np.allclose(h[0], h[1], atol=1e-12)


def test_anchor_channels_scalar_recompute():
    gen = np.random.default_rng(5)
    phases = gen.uniform(-3.0, 3.0, size=(2, 6))
    imp = RfImpairment(phases, 3, 25.0)
    beta = 0.7
    h = anchor_channels(imp, _GEOM, beta)
    for g in range(2):
        for k in range(6):
            expect = (
                beta
                * np.exp(2j * np.pi * 3 * k / 6)
                * np.exp(1j * phases[g, k])
                * np.exp(2j * np.pi * 0.5 * g * math.sin(math.radians(25.0)))
            )
            assert abs(h[g, k] - expect) < 1e-12


def test_anchor_channels_geometry_mismatch():
    with pytest.raises(ConfigError, match="n_tx"):
        anchor_channels(RfImpairment(np.zeros((2, 8)), 0, 0.0), ArrayGeometry(3, 0.5), 1.0)


def test_estimate_constant_offset():
    offsets = np.zeros((2, 16))
    offsets[1, :] = 0.3
    h = anchor_channels(RfImpairment(offsets, 0, 0.0), _GEOM, 1.0)
    assert estimate_phase_correction(h) == pytest.approx(-0.3, abs=1e-12)


def test_estimate_no_offset_is_exactly_zero():
    h = anchor_channels(RfImpairment(np.zeros((2, 16)), 0, 0.0), _GEOM, 0.8)
    assert estimate_phase_correction(h) == 0.0


def test_estimate_zero_mean_offset():
    offsets = np.zeros((2, 16))
    offsets[1, ::2] = 0.2
    offsets[1, 1::2] = -0.2
    h = anchor_channels(RfImpairment(offsets, 0, 0.0), _GEOM, 1.0)
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
    h = anchor_channels(RfImpairment(offsets, 2, 10.0), _GEOM, 0.5)
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
    h = anchor_channels(RfImpairment(offsets, 0, 0.0), _GEOM, 1.0)
    delta = estimate_phase_correction(h)
    assert abs(delta) == pytest.approx(np.pi, abs=1e-12)
    fixed = apply_phase_correction(h, delta)
    assert abs(estimate_phase_correction(fixed)) < 1e-9
