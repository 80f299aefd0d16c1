"""Array geometry, scenario configuration, synthetic channels, and seeded rng.

Everything downstream (precoders, throughput, radar, sweeps) consumes the
types defined here. All values are linear unless a name says otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """A scenario or sweep setting violates its contract."""


class DegenerateChannelError(ValueError):
    """An estimated channel has zero norm, so no beam direction exists."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear transmit array with element spacing in wavelengths."""

    n_tx: int = 2
    spacing_wavelengths: float = 0.5

    def __post_init__(self) -> None:
        if self.n_tx < 1:
            raise ConfigError(f"n_tx must be >= 1, got {self.n_tx}")
        if self.spacing_wavelengths <= 0:
            raise ConfigError("spacing_wavelengths must be positive")


def steering_vector(geom: ArrayGeometry, angle_deg: float) -> np.ndarray:
    """Far-field array response toward ``angle_deg`` (0 deg = broadside).

    Element g carries phase 2*pi*spacing*g*sin(angle), so element 0 is
    always 1 and broadside gives the all-ones vector.
    """
    phase = 2.0 * np.pi * geom.spacing_wavelengths * np.sin(np.deg2rad(angle_deg))
    return np.exp(1j * phase * np.arange(geom.n_tx))


@dataclass(frozen=True)
class RngStream:
    """Deterministic random source keyed by (seed, stream_id).

    Identical keys reproduce draws bit for bit; distinct stream ids give
    independent streams, which is what makes parallel sweeps reproducible
    regardless of evaluation order.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.stream_id))


_SCENARIO_DOC = {
    "n_subcarriers": "OFDM subcarrier count",
    "total_power": "sum transmit power budget, linear",
    "noise_power_comms": "per-subcarrier noise variance at each UE",
    "noise_power_radar": "total in-band radar receiver noise energy",
    "ue_angles_deg": "two UE directions relative to broadside",
    "ue_gains": "per-UE channel amplitude",
    "target_angle_deg": "sensed direction, 0 = broadside",
    "target_delay_bins": "true target delay in range bins",
    "target_attenuation": "two-way echo amplitude factor",
    "csit_error_var": "variance of additive channel-estimate noise",
    "shannon_gap_db": "SNR penalty applied before MCS selection",
    "seed": "root seed for every random draw in the scenario",
}


def _finite(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated deployment: powers, noise, geometry targets, seed."""

    n_subcarriers: int
    total_power: float
    noise_power_comms: float
    noise_power_radar: float
    ue_angles_deg: tuple[float, float]
    ue_gains: tuple[float, float]
    target_angle_deg: float
    target_delay_bins: int
    target_attenuation: float
    csit_error_var: float
    shannon_gap_db: float
    seed: int

    def __post_init__(self) -> None:
        # NaN fails every range comparison below and a bool passes as 0 or
        # 1, so types and finiteness are checked first.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in (int, "int"):
                need = "an integer"
                ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            elif str(f.type).startswith("tuple"):
                need = "a list of finite numbers"
                ok = isinstance(value, (tuple, list)) and all(map(_finite, value))
            else:
                need = "a finite number"
                ok = _finite(value)
            if not ok:
                raise ConfigError(f"{f.name} must be {need}, got {value!r}")
        object.__setattr__(self, "ue_angles_deg", tuple(float(a) for a in self.ue_angles_deg))
        object.__setattr__(self, "ue_gains", tuple(float(g) for g in self.ue_gains))
        if self.n_subcarriers < 2:
            raise ConfigError("n_subcarriers must be >= 2")
        if self.total_power <= 0:
            raise ConfigError("total_power must be positive")
        if self.noise_power_comms <= 0:
            raise ConfigError("noise_power_comms must be positive")
        if self.noise_power_radar < 0:
            raise ConfigError("noise_power_radar must be nonnegative")
        if len(self.ue_angles_deg) != 2 or len(self.ue_gains) != 2:
            raise ConfigError("exactly two UEs are modeled")
        if any(g <= 0 for g in self.ue_gains):
            raise ConfigError("ue_gains must be positive")
        if not 0 <= self.target_delay_bins < self.n_subcarriers:
            raise ConfigError("target_delay_bins must lie in [0, n_subcarriers)")
        if self.csit_error_var < 0:
            raise ConfigError("csit_error_var must be nonnegative")
        if self.shannon_gap_db < 0:
            raise ConfigError("shannon_gap_db must be nonnegative")
        lo, hi = sorted(self.ue_gains)
        if hi > 2.0 * lo:
            warnings.warn(
                "ue_gains differ by more than a factor of 2; the throughput "
                "model assumes users of comparable strength",
                stacklevel=2,
            )

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["ue_angles_deg"] = list(self.ue_angles_deg)
        d["ue_gains"] = list(self.ue_gains)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScenarioConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        missing = names - set(data)
        if missing:
            raise ConfigError(f"missing scenario fields: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario JSON is malformed: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("scenario JSON must be an object")
        return cls.from_json_dict(data)


@dataclass(frozen=True)
class ChannelSet:
    """True and estimated downlink channels plus the derived unit beams.

    Arrays are indexed [ue, subcarrier, element]. ``unit_est`` holds the
    normalized channel estimates the precoders steer along; ``broadside_unit``
    is the unit-norm steering vector toward the sensed direction.
    """

    true_channels: np.ndarray
    est_channels: np.ndarray
    unit_est: np.ndarray
    broadside_unit: np.ndarray

    @property
    def n_subcarriers(self) -> int:
        return self.true_channels.shape[1]

    @property
    def n_tx(self) -> int:
        return self.true_channels.shape[2]


def generate_channels(cfg: ScenarioConfig, geom: ArrayGeometry, rng: RngStream) -> ChannelSet:
    """Draw a flat-fading line-of-sight channel pair for the scenario.

    Each UE sees its steering direction scaled by its gain and an i.i.d.
    per-subcarrier phase. Estimates add circularly symmetric Gaussian noise
    of variance ``csit_error_var`` per component. Same (cfg, geom, rng) in,
    bit-identical ChannelSet out.
    """
    nc, nt = cfg.n_subcarriers, geom.n_tx
    gen = rng.generator()
    true = np.empty((2, nc, nt), dtype=complex)
    for i in range(2):
        a = steering_vector(geom, cfg.ue_angles_deg[i])
        phases = gen.uniform(0.0, 2.0 * np.pi, size=nc)
        true[i] = cfg.ue_gains[i] * np.exp(1j * phases)[:, None] * a[None, :]
    if cfg.csit_error_var > 0:
        scale = np.sqrt(cfg.csit_error_var / 2.0)
        noise = gen.normal(scale=scale, size=(2, nc, nt, 2))
        est = true + noise[..., 0] + 1j * noise[..., 1]
    else:
        est = true.copy()
    norms = np.linalg.norm(est, axis=2)
    if np.any(norms < 1e-300):
        raise DegenerateChannelError(
            "an estimated channel has zero norm; check csit_error_var and ue_gains"
        )
    unit_est = est / norms[..., None]
    u0 = steering_vector(geom, cfg.target_angle_deg) / np.sqrt(nt)
    return ChannelSet(true, est, unit_est, u0)


_PRESETS = {
    # Angles encode the three qualitative geometries: S1 well separated
    # (and exactly orthogonal steering for a 2-element half-wavelength
    # array), S2 users bunched away from the target, S3 everything close.
    "S1": ((-30.0, 30.0), 11),
    "S2": ((42.0, 51.0), 12),
    "S3": ((5.0, 15.0), 13),
}


def scenario_preset(name: str) -> ScenarioConfig:
    """Built-in scenario geometries S1, S2, S3.

    S1 separates the users widely with the target between them, S2 packs
    the users together far from the target, and S3 packs users and target
    together near broadside. Every other field carries the default
    link budget (512 subcarriers, unit total power, broadside target at
    delay bin 3).
    """
    key = name.upper()
    if key not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of S1, S2, S3")
    angles, seed = _PRESETS[key]
    return ScenarioConfig(
        n_subcarriers=512,
        total_power=1.0,  # 23 dBm in the hardware it models; linear here
        noise_power_comms=2e-4,
        noise_power_radar=0.065,
        ue_angles_deg=angles,
        ue_gains=(1.0, 1.0),
        target_angle_deg=0.0,
        target_delay_bins=3,
        target_attenuation=0.1,
        csit_error_var=0.0,
        shannon_gap_db=0.0,
        seed=seed,
    )
