"""Array geometry, steering vectors, scenario config, channel generation."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsma_isac import (
    ArrayGeometry,
    ConfigError,
    RngStream,
    ScenarioConfig,
    generate_channels,
    scenario_preset,
    steering_vector,
)


def test_steering_broadside_is_all_ones():
    for nt in (1, 2, 5):
        a = steering_vector(ArrayGeometry(n_tx=nt), 0.0)
        assert np.array_equal(a, np.ones(nt, dtype=complex))


def test_steering_two_element_endfire(geom):
    a = steering_vector(geom, 90.0)
    assert np.allclose(a, [1.0, -1.0], atol=1e-12)


def test_steering_four_element_30deg():
    a = steering_vector(ArrayGeometry(n_tx=4), 30.0)
    assert np.allclose(a, [1.0, 1.0j, -1.0, -1.0j], atol=1e-12)


@given(angle=st.floats(-90.0, 90.0))
def test_steering_element0_unity_and_unimodular(angle):
    a = steering_vector(ArrayGeometry(n_tx=4), angle)
    assert a[0] == 1.0
    assert np.allclose(np.abs(a), 1.0, atol=1e-12)


def test_geometry_validation():
    with pytest.raises(ConfigError):
        ArrayGeometry(n_tx=0)
    with pytest.raises(ConfigError):
        ArrayGeometry(n_tx=2, spacing_wavelengths=0.0)


def test_rng_streams_repeat_and_differ():
    a = RngStream(5, 2).generator().normal(size=8)
    b = RngStream(5, 2).generator().normal(size=8)
    c = RngStream(5, 3).generator().normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_channels_deterministic(geom, make_cfg):
    cfg = make_cfg(csit_error_var=0.05)
    ch1 = generate_channels(cfg, geom, RngStream(cfg.seed, 0))
    ch2 = generate_channels(cfg, geom, RngStream(cfg.seed, 0))
    assert np.array_equal(ch1.true_channels, ch2.true_channels)
    assert np.array_equal(ch1.est_channels, ch2.est_channels)
    assert np.array_equal(ch1.unit_est, ch2.unit_est)
    assert np.array_equal(ch1.broadside_unit, ch2.broadside_unit)


def test_channels_zero_csit_estimates_exact(make_channels):
    _, ch = make_channels(csit_error_var=0.0)
    assert np.array_equal(ch.est_channels, ch.true_channels)


def test_channels_unit_norms(make_channels):
    _, ch = make_channels(csit_error_var=0.3)
    norms = np.linalg.norm(ch.unit_est, axis=2)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert abs(np.linalg.norm(ch.broadside_unit) - 1.0) < 1e-12
    assert ch.n_subcarriers == 64
    assert ch.n_tx == 2


def test_wider_separation_decorrelates_users(make_channels):
    def corr(angles):
        _, ch = make_channels(ue_angles_deg=angles, n_subcarriers=16)
        inner = np.einsum("kt,kt->k", np.conj(ch.unit_est[0]), ch.unit_est[1])
        return float(np.mean(np.abs(inner)))

    assert corr((-45.0, 45.0)) < corr((-5.0, 5.0))


def test_small_csit_error_gives_small_relative_error(geom, make_cfg):
    cfg = make_cfg(n_subcarriers=32, csit_error_var=1e-6)
    for trial in range(100):
        ch = generate_channels(cfg, geom, RngStream(trial, 0))
        rel = np.linalg.norm(ch.est_channels - ch.true_channels) / np.linalg.norm(
            ch.true_channels
        )
        assert rel < 1e-2


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_subcarriers": 1},
        {"total_power": 0.0},
        {"noise_power_comms": 0.0},
        {"noise_power_radar": -1.0},
        {"ue_angles_deg": (0.0, 1.0, 2.0)},
        {"ue_gains": (1.0, 0.0)},
        {"target_delay_bins": 64},
        {"target_delay_bins": -1},
        {"csit_error_var": -1e-9},
        {"shannon_gap_db": -0.1},
    ],
)
def test_scenario_validation_errors(make_cfg, overrides):
    with pytest.raises(ConfigError):
        make_cfg(**overrides)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_FLOAT_FIELDS = ("total_power", "noise_power_comms", "noise_power_radar",
                 "target_angle_deg", "target_attenuation", "csit_error_var",
                 "shannon_gap_db")
_BAD_VALUES = st.one_of(
    st.tuples(st.sampled_from(_FLOAT_FIELDS), _NON_FINITE),
    st.tuples(st.sampled_from(["ue_angles_deg", "ue_gains"]), st.integers(0, 1),
              _NON_FINITE).map(
        lambda t: (t[0], tuple(t[2] if i == t[1] else 1.0 for i in range(2)))
    ),
    # int fields take ints only: no bools, no floats (integral or not)
    st.tuples(st.sampled_from(["n_subcarriers", "target_delay_bins", "seed"]),
              st.one_of(st.booleans(), st.floats())),
)


@given(bad=_BAD_VALUES)
def test_scenario_rejects_non_finite_and_non_integer_values(bad):
    name, value = bad
    with pytest.raises(ConfigError, match=name):
        dataclasses.replace(scenario_preset("S1"), **{name: value})


def test_dissimilar_gains_warn(make_cfg, recwarn):
    with pytest.warns(UserWarning, match="factor of 2"):
        make_cfg(ue_gains=(1.0, 2.5))
    make_cfg(ue_gains=(1.0, 2.0))
    assert not recwarn.list


def test_json_round_trip(make_cfg):
    cfg = make_cfg(ue_angles_deg=(12.5, -7.25), seed=99)
    again = ScenarioConfig.from_json(cfg.to_json())
    assert again == cfg


def test_json_rejects_unknown_and_missing_keys(make_cfg):
    cfg = make_cfg()
    data = cfg.to_json_dict()
    data["bogus"] = 1
    with pytest.raises(ConfigError, match="unknown"):
        ScenarioConfig.from_json_dict(data)
    data = cfg.to_json_dict()
    del data["seed"]
    with pytest.raises(ConfigError, match="missing"):
        ScenarioConfig.from_json_dict(data)


def test_json_rejects_malformed_documents():
    with pytest.raises(ConfigError, match="malformed"):
        ScenarioConfig.from_json("{nope")
    with pytest.raises(ConfigError, match="object"):
        ScenarioConfig.from_json(json.dumps([1, 2, 3]))


def test_preset_geometries():
    s1 = scenario_preset("S1")
    s2 = scenario_preset("s2")
    s3 = scenario_preset("S3")
    a1, a2, a3 = s1.ue_angles_deg, s2.ue_angles_deg, s3.ue_angles_deg
    assert abs(a1[0] - a1[1]) >= 60.0 and min(abs(a) for a in a1) >= 30.0
    assert abs(a2[0] - a2[1]) <= 10.0 and min(abs(a) for a in a2) >= 30.0
    assert abs(a3[0] - a3[1]) <= 10.0 and min(abs(a) for a in a3) <= 10.0
    for cfg in (s1, s2, s3):
        assert cfg.n_subcarriers == 512
        assert cfg.total_power == 1.0
        assert cfg.target_angle_deg == 0.0
        assert cfg.csit_error_var == 0.0
    assert len({s1.seed, s2.seed, s3.seed}) == 3


def test_preset_unknown_name():
    with pytest.raises(ConfigError, match="unknown preset"):
        scenario_preset("S9")
