"""Link-level simulator for a joint communications and sensing downlink.

Two users share an OFDM downlink through rate-splitting (a jointly decoded
common stream plus private streams) while the same waveform serves a
monostatic ranging radar. Four precoder parameters trade sum throughput
against sensing energy; sweeping them produces performance regions and
Pareto boundaries.
"""

import types

from .calibration import (
    RfImpairment,
    anchor_channels,
    apply_phase_correction,
    estimate_phase_correction,
)
from .core import (
    ArrayGeometry,
    ChannelSet,
    ConfigError,
    DegenerateChannelError,
    RngStream,
    ScenarioConfig,
    generate_channels,
    scenario_preset,
    steering_vector,
)
from .precoders import (
    FAMILIES,
    BlendTable,
    DegenerateDirectionError,
    ParameterPoint,
    PrecoderSet,
    RankDeficientChannelError,
    build_precoders,
    common_direction,
    private_directions,
)
from .radar import (
    UndefinedProfileError,
    expected_sensing,
    expected_steered_power,
    monte_carlo,
    radar_return,
    range_profile,
    sensing_symbols,
    snr_rad_closed_form,
    steered_projection,
    synthesize_tx,
    two_stage_capture,
)
from .region import (
    CASE_TAGS,
    SCHEMES,
    IsacPoints,
    RegionResult,
    SkippedPoints,
    SweepSpec,
    case_codes,
    enumerate_grid,
    frontier_points,
    grid_axis,
    pareto_indices,
    round_sig,
    scheme_frontier,
    scheme_points,
    sweep,
    write_boundary_params_csv,
    write_points_csv,
)
from .throughput import (
    DEFAULT_BANDWIDTH,
    MCS_TABLE,
    ThroughputReport,
    max_mcs,
    sinr_common,
    sinr_private,
    spectral_efficiency,
    stream_gains,
    throughput,
)

__version__ = "0.1.0"

# Importing the submodules binds their names here too; they are not exports.
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], types.ModuleType)
]
