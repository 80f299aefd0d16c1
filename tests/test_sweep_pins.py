"""Byte pins for sweep paths the golden matrix does not reach.

``perfbench/golden.json`` pins plain G0 sweeps of the presets. These pins
cover what it misses: a case-filtered sweep, a ZF sweep on rank-deficient
channels (its private-power points are skipped), and a Monte Carlo SNR
sweep toward an off-broadside target. Each digest is the sha256 of the
file the sweep writes; a change that moves any of them changes output.

The two SNR sweeps that drop rows, one by a case filter and one by
skipped ZF points, pin that a point's Monte Carlo streams follow from its
grid row, not from its position among the measured points.
"""

import hashlib

import pytest

from rsma_isac.cli import main

_FILES = ("points.csv", "boundary.csv", "boundary_params.csv")

_PINS = {
    "include_cases": (
        ["--preset", "S2", "--set", "n_subcarriers=32", "--step", "0.1", "--family", "both",
         "--set", 'include_cases=["General", "RSMA_NoSense_Soft", "SDMA_Sense_General"]'],
        ("64a44e690b27db5a0dcd0286a29c818b35577722783fbdfc8b53ebfe97aa7d10",
         "b91c1274cdbf30b0a765aae7c1159a0b496df9a5b5789331b1b61c06fa233062",
         "0934ac4c426e10d7cd37ee9fa0504dfd85dff8430dd4076f6a930d5643b12a29"),
    ),
    "zf_rank_deficient": (
        ["--preset", "S1", "--set", "n_subcarriers=32", "--set", "ue_angles_deg=[30, 30]",
         "--set", "csit_error_var=0", "--step", "0.25", "--family", "both"],
        ("eefdb2ba2a7adad798b4b6b27f0016009c97f5bfe7534ab264c5ba2863d34587",
         "033f74df8c8d0b8745080a5a30e50ffa754514f410f78315acae4bb879f1a9de",
         "a1e3776d0442d4aae9fb9f2ad2a16aa36686054d760d79170b3c5d5c62613af6"),
    ),
    "snr_target_10deg": (
        ["--preset", "S1", "--set", "n_subcarriers=32", "--set", "target_angle_deg=10",
         "--metric", "snr", "--trials", "3", "--step", "0.5", "--family", "both"],
        ("aead6e2df6b80eb1525585e5bbeb4104c88d43a3bd784f1c02d5b1984075b547",
         "eb418d2f920a0d6dde94731bfd44388945036d4f3e432a5c3bf321c3cdf8d415",
         "5b04cd0eacf77c4a72909046e49b609b583d3fb480d516b2e754580cdfacf566"),
    ),
    "snr_include_cases": (
        ["--preset", "S2", "--set", "n_subcarriers=32", "--metric", "snr", "--trials", "3",
         "--step", "0.5", "--family", "both",
         "--set", 'include_cases=["General", "SDMA_Sense_Hard"]'],
        ("ab4a7953dfa378eeacf3ba51b5faaf72a56397c4f112e4468b1f7943bdb9958f",
         "237d6aab29ccec04459c35e6d17663020f0b553a238f119d1a9c806cfd29fba3",
         "d99845050fe689099bddd873a46274557affb9f1c79daac8b4b20564192212a5"),
    ),
    "snr_zf_rank_deficient": (
        ["--preset", "S1", "--set", "n_subcarriers=32", "--set", "ue_angles_deg=[30, 30]",
         "--set", "csit_error_var=0", "--metric", "snr", "--trials", "3", "--step", "0.5",
         "--family", "both"],
        ("47aca4be8e55374096a413d3c17e379e23cca3a355903de86592c4db78c8e608",
         "7e02d51c0ec31b7a37701c26a5fd29a2fa0042f794ffcf5c80e039378924d71c",
         "4f99dd55ba8b98445ee7b5155404c34eef766269b6bef5e4bbec5263fa0b3414"),
    ),
}


@pytest.mark.parametrize("name", sorted(_PINS))
def test_sweep_outputs_match_their_pins(tmp_path, name):
    argv, digests = _PINS[name]
    assert main(["sweep", *argv, "--out", str(tmp_path)]) == 0
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in _FILES)
    assert got == digests
