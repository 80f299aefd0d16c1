"""Acceptance checks, one test per shipped guarantee.

Each test prints a single `[acceptance N] label: PASS|FAIL` line so a full
run reads as a scorecard. Numeric tolerances are stated inline next to the
assertion they guard.
"""

import dataclasses
import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rsma_isac import (
    CASE_TAGS,
    DEFAULT_BANDWIDTH,
    ArrayGeometry,
    MCS_TABLE,
    ParameterPoint,
    RngStream,
    SweepSpec,
    build_precoders,
    case_codes,
    common_direction,
    generate_channels,
    scenario_preset,
    scheme_frontier,
    scheme_points,
    sweep,
    synthesize_tx,
    throughput,
)
from rsma_isac.cli import main
from rsma_isac.radar import (
    _delay_crb,
    _delay_fisher,
    _k2_sum,
    radar_return,
    range_profile,
    snr_rad_closed_form,
    steered_projection,
    two_stage_capture,
)
from rsma_isac.region import pareto_indices
from rsma_isac.throughput import _MCS_RATES

_GEOM = ArrayGeometry(2, 0.5)
_PRESETS = ("S1", "S2", "S3")
_FAMILIES = ("MRT", "ZF")


@pytest.fixture(scope="module")
def region_data():
    """One step-0.1 sweep per preset and family at N_c = 64, with timings."""
    out = {}
    for preset in _PRESETS:
        cfg = dataclasses.replace(scenario_preset(preset), n_subcarriers=64)
        channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
        for family in _FAMILIES:
            start = time.monotonic()
            result = sweep(SweepSpec(0.1, (family,), "G0", None, 25), channels, cfg, _GEOM)
            elapsed = time.monotonic() - start
            out[(preset, family)] = (cfg, channels, result, elapsed)
    return out


def _keys(points):
    """Each point's knobs and family code, as tuples."""
    knobs = (points.t_comms, points.t_p, points.alpha_c, points.alpha_p, points.family)
    return list(zip(*(k.tolist() for k in knobs)))


@pytest.fixture
def verdict(capsys):
    def _report(num, label, failures):
        status = "PASS" if not failures else "FAIL"
        with capsys.disabled():
            print(f"\n[acceptance {num}] {label}: {status}")
        assert not failures, f"criterion {num} failed: {failures}"

    return _report


def test_criterion_1_region_shape(region_data, verdict):
    failures = []

    # (a) tight-angle MRT: the max-throughput corner of the SDMA frontier is
    # strictly beaten on both axes by some full-communications point
    for preset in ("S2", "S3"):
        cfg, channels, result, _ = region_data[(preset, "MRT")]
        pts = result.points
        corner = scheme_frontier(pts, "SDMA", "G0").take([-1])
        rsma = scheme_points(pts, "RSMA_NoSense")
        dominators = (rsma.t_sum_bps > corner.t_sum_bps) & (rsma.g0 > corner.g0)
        if not dominators.any():
            failures.append(f"{preset} MRT SDMA corner not dominated")

    for (preset, family), (cfg, channels, result, _) in region_data.items():
        pts = result.points

        # (b) the full-communications frontier spends the whole budget on
        # communications at every point
        front = scheme_frontier(pts, "RSMA_NoSense", "G0")
        if not front:
            failures.append(f"{preset} {family}: empty full-communications frontier")
        if np.any(front.t_comms != 1.0):
            failures.append(f"{preset} {family}: frontier point with t_comms < 1")

        # (c) the no-sensing SDMA line is not wholly on the SDMA frontier
        no_sense = pts.take((pts.t_p == 1.0) & (pts.t_comms == 1.0))
        front_keys = set(_keys(scheme_frontier(pts, "SDMA", "G0")))
        if len(no_sense) != 11:
            failures.append(f"{preset} {family}: expected 11 no-sensing points")
        if all(key in front_keys for key in _keys(no_sense)):
            failures.append(
                f"{preset} {family}: every no-sensing point sits on the frontier"
            )

    # runtime target: any single full sweep under 60 s
    slowest = max(elapsed for *_, elapsed in region_data.values())
    if slowest >= 60.0:
        failures.append(f"slowest sweep took {slowest:.1f} s (>= 60 s)")

    verdict(1, "region shape and frontier structure at step 0.1", failures)


def test_criterion_2_angle_separation_ratios(region_data, verdict):
    failures = []
    peaks = {}
    for key, (cfg, channels, result, _) in region_data.items():
        peaks[key] = max(scheme_points(result.points, "SDMA").t_sum_bps)

    for preset in ("S2", "S3"):
        mrt_ratio = peaks[(preset, "MRT")] / peaks[("S1", "MRT")]
        zf_ratio = peaks[(preset, "ZF")] / peaks[("S1", "ZF")]
        if not mrt_ratio < 0.5:  # "less than half" for the MRT beams
            failures.append(f"{preset} MRT ratio {mrt_ratio:.4f} >= 0.5")
        if not zf_ratio > mrt_ratio:  # nulling softens the hit
            failures.append(
                f"{preset}: ZF ratio {zf_ratio:.4f} <= MRT ratio {mrt_ratio:.4f}"
            )

    verdict(2, "SDMA peak throughput collapses under tight angles", failures)


def test_criterion_3_bandwidth_and_rates(verdict):
    failures = []
    if DEFAULT_BANDWIDTH != 73125000.0:
        failures.append(f"effective bandwidth {DEFAULT_BANDWIDTH!r} != 73.125 MHz")

    # the rates throughput() scores with, one per MCS_TABLE row
    exact_bw = Fraction(73125000)
    for index, (_, m, r) in enumerate(MCS_TABLE):
        exact = float(exact_bw * m * r)
        got = float(_MCS_RATES[index])
        if not math.isclose(got, exact, rel_tol=1e-6):  # 6 significant figures
            failures.append(f"MCS {index}: {got} != {exact}")
    if _MCS_RATES[9] != 487500000.0:
        failures.append("top MCS rate is not exactly 487.5 Mbps")

    verdict(3, "effective bandwidth and MCS data rates", failures)


def test_criterion_4_radar_chain_end_to_end(verdict):
    failures = []
    start = time.monotonic()

    cfg = dataclasses.replace(scenario_preset("S1"), n_subcarriers=64)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    pset = build_precoders(ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"), channels, cfg)
    c = steered_projection(synthesize_tx(pset, [RngStream(cfg.seed, 50)]), _GEOM, 0.0)[0]
    beta = 0.1
    # noise sized so the closed-form SNR sits at 22 dB, inside the 20-24 dB band
    sigma = beta**2 * 63 * (cfg.total_power * 2) / 10**2.2
    cf_db = 10 * math.log10(snr_rad_closed_form(c, beta, sigma))
    if not 20.0 <= cf_db <= 24.0:
        failures.append(f"closed-form SNR {cf_db:.2f} dB outside [20, 24]")

    stack = np.repeat(c[None], 100, axis=0)
    measured = []
    for i, n0 in enumerate((1, 2, 3)):
        keys = [RngStream(cfg.seed, 1000 + 100 * i + t) for t in range(100)]
        peak_bin, snr_rad_db = range_profile(radar_return(stack, n0, beta, sigma, keys), stack)
        hits = int(np.sum(peak_bin == n0))
        measured += snr_rad_db.tolist()
        if hits < 99:  # >= 99/100 recoveries per delay
            failures.append(f"n0={n0}: only {hits}/100 correct peaks")

    gap = abs(float(np.mean(measured)) - cf_db)
    if gap > 1.0:  # measured vs closed form within 1 dB
        failures.append(f"measured SNR off by {gap:.3f} dB")

    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"radar Monte Carlo took {elapsed:.1f} s (>= 30 s)")

    verdict(4, "matched filter recovers the delay at the predicted SNR", failures)


def test_criterion_5_crb_validation(verdict):
    failures = []
    cfg = dataclasses.replace(scenario_preset("S1"), n_subcarriers=64)
    channels = generate_channels(cfg, _GEOM, RngStream(cfg.seed, 0))
    prng = np.random.default_rng(99)
    beta, sigma, n0, h = 0.37, 0.8, 5.0, 1e-3
    k = np.arange(64)

    for inst in range(3):
        pp = ParameterPoint(*prng.uniform(0.05, 0.95, 4), "MRT")
        pset = build_precoders(pp, channels, cfg)
        x = synthesize_tx(pset, [RngStream(cfg.seed, 200 + inst)])
        c = steered_projection(x, _GEOM, 0.0)[0]
        weighted = _k2_sum(np.abs(c) ** 2)

        def nll_shift(n):
            mu0 = beta * c * np.exp(2j * np.pi * n0 * k / 64)
            mu = beta * c * np.exp(2j * np.pi * n * k / 64)
            return (64 / sigma) * float(np.sum(np.abs(mu0 - mu) ** 2))

        fd = (nll_shift(n0 + h) - 2 * nll_shift(n0) + nll_shift(n0 - h)) / h**2
        info = _delay_fisher(weighted, 64, beta, sigma)
        rel = abs(fd - info) / info
        if rel >= 1e-3:  # curvature vs closed form, 1e-3 relative
            failures.append(f"instance {inst}: curvature off by {rel:.2e}")

    # CRB scaling, on the last instance's waveform
    base = _delay_crb(weighted, 64, 0.1, 0.065)
    if not math.isclose(_delay_crb(weighted, 64, 0.2, 0.065), base / 4.0, rel_tol=1e-12):
        failures.append("doubling the echo amplitude does not quarter the CRB")
    if not math.isclose(_delay_crb(weighted, 64, 0.1, 0.195), base * 3.0, rel_tol=1e-12):
        failures.append("tripling the noise does not triple the CRB")

    verdict(5, "Fisher information against likelihood curvature", failures)


def test_criterion_6_property_suites(region_data, verdict):
    failures = []
    cfg16 = dataclasses.replace(scenario_preset("S1"), n_subcarriers=16)
    ch16 = generate_channels(cfg16, _GEOM, RngStream(cfg16.seed, 0))

    # (a) power conservation over 1000 random parameter points, 1e-9 relative
    prng = np.random.default_rng(2024)
    for _ in range(1000):
        vals = prng.uniform(0.0, 1.0, 4)
        family = "MRT" if prng.integers(0, 2) == 0 else "ZF"
        pset = build_precoders(ParameterPoint(*vals, family), ch16, cfg16)
        total = sum(pset.stream_powers().values())
        if abs(total - cfg16.total_power) > 1e-9 * cfg16.total_power:
            failures.append(f"power leak at {vals} {family}")
            break

    # (b) ZF nulling under perfect channel knowledge, 1e-10 * noise floor
    cfg_s2, ch_s2, _, _ = region_data[("S2", "ZF")]
    zf = build_precoders(ParameterPoint(1.0, 1.0, 1.0, 1.0, "ZF"), ch_s2, cfg_s2)
    for ue, other in ((1, zf.p_2), (2, zf.p_1)):
        h = ch_s2.true_channels[ue - 1]
        leak = np.max(np.abs(np.einsum("kt,kt->k", np.conj(h), other)) ** 2)
        if leak >= 1e-10 * cfg_s2.noise_power_comms:
            failures.append(f"ZF leak {leak:.2e} at user {ue}")

    # (c) frontier extraction vs the O(n^2) definition on 1000 random sets
    ppr = np.random.default_rng(31)
    for trial in range(1000):
        n = int(ppr.integers(1, 40))
        xs = ppr.integers(0, 7, size=n).astype(float)
        ys = ppr.integers(0, 7, size=n).astype(float)
        brute = []
        for i in range(n):
            if any(
                xs[j] >= xs[i]
                and ys[j] >= ys[i]
                and (xs[j] > xs[i] or ys[j] > ys[i])
                for j in range(n)
            ):
                continue
            dup = [j for j in range(n) if xs[j] == xs[i] and ys[j] == ys[i]]
            if min(dup) != i:
                continue
            brute.append(i)
        brute.sort(key=lambda i: xs[i])
        if pareto_indices(xs, ys, ()).tolist() != brute:
            failures.append(f"pareto mismatch on trial {trial}")
            break

    # (d) named power-split regimes match independent closed forms, 1e-12
    failures += _closed_form_failures(ch16, cfg16)

    # (e) collapse identity: a collapsed report carries zero throughput
    noisy = dataclasses.replace(cfg16, noise_power_comms=10.0)
    pset = build_precoders(ParameterPoint(1.0, 0.5, 0.5, 0.5, "MRT"), ch16, noisy)
    rep = throughput(ch16, pset, noisy)
    if not rep.collapsed or rep.t_sum != 0.0:
        failures.append("constructed collapse did not zero the sum rate")
    for (preset, family), (_, _, result, _) in region_data.items():
        pts = result.points
        if np.any(pts.t_sum_bps[pts.collapsed] != 0.0):
            failures.append(f"{preset} {family}: collapsed point with rate")

    # (f) background subtraction is exact without noise
    pset_r = build_precoders(ParameterPoint(0.0, 1.0, 1.0, 1.0, "MRT"), ch16, cfg16)
    c = steered_projection(synthesize_tx(pset_r, [RngStream(cfg16.seed, 50)]), _GEOM, 0.0)
    # both captures carry clutter of 10x the echo energy; only the echo survives
    y = two_stage_capture(c, 3, 0.3, 0.0, [RngStream(6, 1)], [RngStream(6, 2)])
    echo = 0.3 * c * np.exp(2j * np.pi * 3 * np.arange(16) / 16)
    err = float(np.sum(np.abs(y - echo) ** 2))
    if err > 1e-12 * 10.0 * 0.3**2 * float(np.sum(np.abs(c) ** 2)):
        failures.append(f"background subtraction residual {err:.2e}")

    verdict(6, "always-on property suites", failures)


def _closed_form_failures(channels, cfg):
    failures = []
    nc = cfg.n_subcarriers
    pt = cfg.total_power
    u0 = channels.broadside_unit
    uc = common_direction(channels)
    u1, u2 = channels.unit_est
    zeros = np.zeros((nc, 2), dtype=complex)

    def blend(power, alpha, grid):
        v = math.sqrt(alpha) * grid + math.sqrt(1.0 - alpha) * u0[None, :]
        return math.sqrt(power / float(np.sum(np.abs(v) ** 2))) * v

    cases = {
        ParameterPoint(1.0, 0.4, 0.3, 0.6, "MRT"): (
            blend(pt * 0.6, 0.3, uc),
            blend(pt * 0.2, 0.6, u1),
            blend(pt * 0.2, 0.6, u2),
            zeros,
        ),
        ParameterPoint(1.0, 0.4, 0.25, 0.75, "MRT"): (
            blend(pt * 0.6, 0.25, uc),
            blend(pt * 0.2, 0.75, u1),
            blend(pt * 0.2, 0.75, u2),
            zeros,
        ),
        ParameterPoint(0.5, 1.0, 1.0, 0.4, "MRT"): (
            zeros,
            blend(pt * 0.25, 0.4, u1),
            blend(pt * 0.25, 0.4, u2),
            math.sqrt(pt * 0.5 / nc) * np.tile(u0, (nc, 1)),
        ),
        ParameterPoint(0.5, 1.0, 1.0, 1.0, "MRT"): (
            zeros,
            math.sqrt(pt * 0.25 / nc) * u1,
            math.sqrt(pt * 0.25 / nc) * u2,
            math.sqrt(pt * 0.5 / nc) * np.tile(u0, (nc, 1)),
        ),
        ParameterPoint(1.0, 1.0, 1.0, 0.3, "MRT"): (
            zeros,
            blend(pt * 0.5, 0.3, u1),
            blend(pt * 0.5, 0.3, u2),
            zeros,
        ),
    }
    seen = set()
    for pp, expect in cases.items():
        seen.add(CASE_TAGS[case_codes(pp.t_comms, pp.t_p, pp.alpha_c, pp.alpha_p)])
        pset = build_precoders(pp, channels, cfg)
        for name, built, closed in zip(
            ("common", "p1", "p2", "sensing"),
            (pset.p_c, pset.p_1, pset.p_2, pset.p_r),
            expect,
        ):
            if not np.allclose(built, closed, atol=1e-12):
                failures.append(f"{dataclasses.astuple(pp)}: {name} deviates from closed form")
    if len(seen) != 5:
        failures.append(f"regimes covered: {sorted(seen)}")
    return failures


def test_criterion_7_reproducibility(tmp_path, verdict):
    failures = []
    out = tmp_path / "run"
    rc = main(
        ["sweep", "--preset", "S2", "--set", "n_subcarriers=16",
         "--step", "0.5", "--family", "both", "--out", str(out)]
    )
    if rc != 0:
        failures.append(f"sweep exited {rc}")
    redo = tmp_path / "redo"
    rc = main(["reproduce", "--run", str(out / "run.json"), "--out", str(redo)])
    if rc != 0:
        failures.append(f"reproduce exited {rc}")

    manifest = json.loads((out / "run.json").read_text())
    for name, digest in manifest["outputs"].items():
        redo_digest = hashlib.sha256((redo / name).read_bytes()).hexdigest()
        if redo_digest != digest:
            failures.append(f"{name}: digest drift")
        if (redo / name).read_bytes() != (out / name).read_bytes():
            failures.append(f"{name}: bytes differ")

    verdict(7, "manifest reproduction is byte-identical", failures)
