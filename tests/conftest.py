"""Shared fixtures: a two-element array, a small scenario factory, channels."""

import numpy as np
import pytest

from rsma_isac import ArrayGeometry, ChannelSet, RngStream, ScenarioConfig, generate_channels

_DEFAULTS = dict(
    n_subcarriers=64,
    total_power=1.0,
    noise_power_comms=2e-4,
    noise_power_radar=0.065,
    ue_angles_deg=(-30.0, 30.0),
    ue_gains=(1.0, 1.0),
    target_angle_deg=0.0,
    target_delay_bins=3,
    target_attenuation=0.1,
    csit_error_var=0.0,
    shannon_gap_db=0.0,
    seed=7,
)


@pytest.fixture
def geom():
    return ArrayGeometry(n_tx=2, spacing_wavelengths=0.5)


@pytest.fixture
def make_cfg():
    def _make(**overrides) -> ScenarioConfig:
        fields = dict(_DEFAULTS)
        fields.update(overrides)
        return ScenarioConfig(**fields)

    return _make


@pytest.fixture
def make_channels(geom, make_cfg):
    """Build (cfg, channels) from scenario overrides; stream 0 like the CLI."""

    def _make(cfg=None, **overrides):
        if cfg is None:
            cfg = make_cfg(**overrides)
        return cfg, generate_channels(cfg, geom, RngStream(cfg.seed, 0))

    return _make


@pytest.fixture
def flat_channels():
    """ChannelSet with one fixed direction per user, repeated across subcarriers."""

    def _make(u1, u2, nc=8) -> ChannelSet:
        u1 = np.asarray(u1, dtype=complex)
        u2 = np.asarray(u2, dtype=complex)
        est = np.stack([np.tile(u1, (nc, 1)), np.tile(u2, (nc, 1))])
        norms = np.linalg.norm(est, axis=2, keepdims=True)
        unit = est / norms
        # A broadside target: the all-ones array response.
        return ChannelSet(est.copy(), est.copy(), unit, np.ones(u1.shape[0], dtype=complex))

    return _make
