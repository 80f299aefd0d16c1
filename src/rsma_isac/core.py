"""Array geometry, scenario configuration, synthetic channels, and seeded rng.

Everything downstream (precoders, throughput, radar, sweeps) consumes the
types defined here. All values are linear unless a name says otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
import threading
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """A scenario or sweep setting violates its contract."""


class DegenerateChannelError(ValueError):
    """An estimated channel has zero norm, so no beam direction exists."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear transmit array with element spacing in wavelengths."""

    n_tx: int
    spacing_wavelengths: float

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


class Workspace(threading.local):
    """The calling thread's resident buffers: one byte buffer per slot.

    Code that makes the same large temporaries call after call writes
    them with ``out=`` into these buffers, so the same pages serve every
    call instead of going back to the allocator and faulting in again.
    Each thread has its own (``WORKSPACE``); a buffer grows to the largest
    array it has held and then stays. A slot's next use overwrites what it
    held, so an array taken from it must be dead by then, and a function
    returns none unless it documents that lifetime, as the radar chain's
    stages do under ``radar.monte_carlo``. Arrays that are never live at
    once share a slot::

        0      a sweep chunk's SINR-sized float grid (the log argument of
               ``spectral_efficiency``, the power of ``sensing_sums``);
               the radar chain's x, noise stack, conj(c) and DFT
        1      the complex projections in ``stream_gains`` and the SINR
               denominators; the radar chain's take() output, |c|^2,
               matched-filter product and |DFT|
        2      the radar chain's index rows, clutter grid, off-peak powers
        3      its raw quadrant words, then c
        3 + j  its capture y of stream column j
    """

    def __init__(self) -> None:
        self.buffers: dict[int, np.ndarray] = {}

    def array(self, resident: bool, slot: int, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized array of ``shape`` for a caller to write with
        ``out=``: buffer ``slot`` when ``resident``, else a fresh one."""
        if not resident:
            return np.empty(shape, dtype)
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self.buffers.get(slot)
        if buf is None or buf.size < nbytes:
            buf = self.buffers[slot] = np.empty(nbytes, np.uint8)
        return np.ndarray(shape, dtype, buf)

    def holds(self, slot: int, a: np.ndarray) -> bool:
        """Whether ``a`` is a view of this thread's buffer ``slot``."""
        return a.base is not None and a.base is self.buffers.get(slot)


WORKSPACE = Workspace()


@dataclass(frozen=True)
class RngStream:
    """Deterministic random source keyed by (seed, stream_id).

    Identical keys reproduce draws bit for bit; distinct stream ids give
    independent streams, which is what makes parallel sweeps reproducible
    regardless of evaluation order.
    """

    seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.stream_id))


# numpy's SeedSequence hash constants: (INIT_A, MULT_A) hash the key into
# the pool, (INIT_B, MULT_B) hash the pool out, MIX_L and MIX_R mix pool
# words; then the 128-bit LCG multiplier that PCG64 seeds with.
_POOL_HASH = (0x43B0D7E5, 0x931E8875)
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The (xor, multiply) pairs of ``count`` successive SeedSequence hashes, (count, 2, 1)."""
    pairs = []
    for _ in range(count):
        pairs.append(init)
        init = init * mult & _MASK32
        pairs.append(init)
    return np.array(pairs, dtype=np.uint32).reshape(count, 2, 1)


_POOL_CONSTANTS = _hash_constants(*_POOL_HASH, 16)
_STATE_CONSTANTS = _hash_constants(*_STATE_HASH, 8)


def _hash(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row of uint32 ``words`` with its own constants.

    The arithmetic wraps modulo 2**32, as it does in numpy's C code; array
    arithmetic wraps without a warning.
    """
    out = words ^ constants[:, 0]
    out *= constants[:, 1]
    out ^= out >> 16
    return out


def stream_states(seed: int, stream_ids: Sequence[int]) -> list[tuple[int, int]]:
    """The PCG64 starting ``(state, inc)`` of ``RngStream(seed, i)`` for each i.

    ``RngStream.generator`` is numpy's ``default_rng((seed, i))``: a
    SeedSequence hashes the key's 32-bit words into a pool of four, hashes
    the pool out into four 64-bit words, and PCG64 takes two 128-bit LCG
    steps from them. This runs the same arithmetic for many keys at once:
    the hashing on uint32 arrays over the keys, the LCG steps on Python
    ints. A key of at most four words hashes as its zero-padded form does,
    so the seed and ids must lie in [0, 2**64). A Generator whose
    ``bit_generator.state`` is set to an entry, with no buffered 32-bit
    half (``has_uint32 = 0``), draws what that stream's generator draws.
    """
    if not (0 <= seed < 1 << 64 and all(0 <= i < 1 << 64 for i in stream_ids)):
        raise ValueError(f"seed {seed} or one of its stream ids lies outside [0, 2**64)")
    ids = np.array(stream_ids, dtype=np.uint64)
    # An integer's words run least significant first; below 2**32 it is one word.
    seed_words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    pool = np.zeros((4, len(ids)), dtype=np.uint32)
    pool[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = ids & _MASK32
    pool[len(seed_words) + 1] = ids >> 32
    pool = _hash(pool, _POOL_CONSTANTS[:4])
    # Every word then mixes the hash of every other into itself; for one
    # source word the three targets take successive constants.
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = pool[dst] * _MIX_L
        mixed -= _hash(pool[src], _POOL_CONSTANTS[4 + 3 * src:7 + 3 * src]) * _MIX_R
        mixed ^= mixed >> 16
        pool[dst] = mixed
    words = _hash(np.concatenate([pool, pool]), _STATE_CONSTANTS).astype(np.uint64)
    # Little-endian word pairs make the 64-bit words, and pairs of those,
    # high first, the 128-bit seed and sequence of each key.
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*(words[0::2] | words[1::2] << 32).tolist()):
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def _finite(value) -> bool:
    # NaN, the infinities and integers beyond the float range all fail.
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _caller_stacklevel() -> int:
    """The ``stacklevel`` that names the line that built a config.

    Counted from ``__post_init__``, which calls this: past the generated
    ``__init__`` (level 2), the first frame outside this module and
    ``dataclasses``, so a config built through ``from_json_dict`` or
    ``dataclasses.replace`` names its caller's line too.
    """
    level, frame = 3, sys._getframe(3)
    while frame is not None and frame.f_code.co_filename in (__file__, dataclasses.__file__):
        level, frame = level + 1, frame.f_back
    return level


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated deployment: powers, noise, geometry targets, seed.

    ``noise_power_comms`` is the noise variance per subcarrier at each UE;
    ``noise_power_radar`` is the total in-band noise energy of one radar
    capture, spread evenly over the subcarriers; ``target_attenuation`` is
    the two-way echo amplitude factor (not a power).
    """

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
        # The delay Fisher information and the radar chain take the echo
        # amplitude squared; a square past the float range has no answer.
        beta = float(self.target_attenuation)
        if not math.isfinite(beta * beta):
            raise ConfigError(
                f"target_attenuation {beta!r} has a square past the float range"
            )
        if self.csit_error_var < 0:
            raise ConfigError("csit_error_var must be nonnegative")
        if self.shannon_gap_db < 0:
            raise ConfigError("shannon_gap_db must be nonnegative")
        # Random streams are keyed by (seed, stream id), each at most 64 bits.
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        lo, hi = sorted(self.ue_gains)
        if hi > 2.0 * lo:
            warnings.warn(
                "ue_gains differ by more than a factor of 2; the throughput "
                "model assumes users of comparable strength",
                stacklevel=_caller_stacklevel(),
            )

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["ue_angles_deg"] = list(self.ue_angles_deg)
        d["ue_gains"] = list(self.ue_gains)
        return d

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
    """True and estimated downlink channels plus the sensed direction.

    Arrays are indexed [ue, subcarrier, element]. ``unit_est`` holds the
    normalized channel estimates the precoders steer along;
    ``target_steering`` is the array response toward the target, the one
    place the sensed direction is fixed.
    """

    true_channels: np.ndarray
    est_channels: np.ndarray
    unit_est: np.ndarray
    target_steering: np.ndarray

    @property
    def target_unit(self) -> np.ndarray:
        """The unit-norm sensing beam, along ``target_steering``."""
        return self.target_steering / np.sqrt(self.n_tx)

    @property
    def n_subcarriers(self) -> int:
        return self.true_channels.shape[1]

    @property
    def n_tx(self) -> int:
        return self.true_channels.shape[2]


def _check_link_budget(cfg: ScenarioConfig, nt: int) -> None:
    """Turn away a scenario whose gains, SINRs or sensing energies on ``nt``
    antennas could pass the float range, naming its fields.

    A channel's energy is at most n_tx·max(g)²; a stream's gain |h^H p|²,
    over all subcarriers too, at most that times total_power, an SINR that
    over noise_power_comms; g0 is at most n_tx·total_power and its
    delay-weighted sum (N_c − 1)² times that. Each bound multiplies in
    that order, so an overflow on the way counts.
    """
    g2, pt = max(cfg.ue_gains) * max(cfg.ue_gains), cfg.total_power
    try:
        k = float(cfg.n_subcarriers - 1)
    except OverflowError:  # a subcarrier count past the float range
        k = math.inf
    for names, bound, value in (
        (("ue_gains",), "n_tx*max(ue_gains)**2", nt * g2),
        (("n_subcarriers", "total_power"), "(n_subcarriers-1)**2*n_tx*total_power",
         k * k * nt * pt),
        (("total_power", "ue_gains", "noise_power_comms"),
         "total_power*n_tx*max(ue_gains)**2/noise_power_comms",
         pt * nt * g2 / cfg.noise_power_comms),
    ):
        if not math.isfinite(value):
            given = ", ".join(f"{name} {getattr(cfg, name)!r}" for name in names)
            raise ConfigError(f"{given}: {bound} is past the float range with n_tx = {nt}")


def generate_channels(cfg: ScenarioConfig, geom: ArrayGeometry, rng: RngStream) -> ChannelSet:
    """Draw a flat-fading line-of-sight channel pair for the scenario.

    Each UE sees its steering direction scaled by its gain and an i.i.d.
    per-subcarrier phase. Estimates add circularly symmetric Gaussian noise
    of variance ``csit_error_var`` per component. Same (cfg, geom, rng) in,
    bit-identical ChannelSet out. A link budget that could pass the float
    range on this array, or estimates whose energy does, is a
    ``ConfigError``.
    """
    nc, nt = cfg.n_subcarriers, geom.n_tx
    _check_link_budget(cfg, nt)
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
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(est, axis=2)
    if not np.all(np.isfinite(norms)):
        raise ConfigError(
            f"csit_error_var {cfg.csit_error_var!r} draws channel estimates whose "
            f"energy is past the float range"
        )
    if np.any(norms < 1e-300):
        raise DegenerateChannelError(
            "an estimated channel has zero norm; check csit_error_var and ue_gains"
        )
    unit_est = est / norms[..., None]
    return ChannelSet(true, est, unit_est, steering_vector(geom, cfg.target_angle_deg))


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
