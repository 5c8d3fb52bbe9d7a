"""Radar imaging with OFDM communication waveforms.

Synthesizes temporal-frequency echo grids from modulated symbol grids,
removes the data randomness with reciprocal / matched / Wiener filters,
focuses range-Doppler images, and quantifies point-target quality
(NMSE, ISLR, PEL, SNR_out) for data-aided and pilot-only operation.
"""

from .errors import (CapacityError, ConfigurationError, GeometryError,
                     InvalidParameterError, MeasurementError, OfdmSarError,
                     PgmParseError, SceneError, StageError)
from .geometry import PlatformGeometry, mean_range
from .waveform import (Constellation, FilterStats, RadarConfig, SrsConfig,
                       chi_stats, gen_symbol_grid, gen_symbol_indices,
                       make_qam, nr_config)
from .scene import PointTarget, Scene, load_scene_pgm, make_point_scene
from .echo import (build_channel_matrix, check_cp_margin, draw_noise,
                   grid_from_bytes, grid_to_bytes, synthesize_echo)
from .tf_filter import (FilterSpec, apply_tf_filter, channel_mse_analytic,
                        filter_gains)
from .rd_imaging import (azimuth_compress, azimuth_fft, focus_image,
                         range_compress, rcm_shift, rcmc, stage_grids)
from .metrics import (MetricsReport, analytic_point_metrics,
                      ideal_reference_image, identity_residual, islr,
                      measure_mainlobe_width, nmse, pedestal_level, pel,
                      snr_out, theoretical_resolutions)
from .pipeline import (EnsembleResult, pilot_comb_mask, point_target_report,
                       run_point_ensemble, run_sweep_ensemble)
from .pgm import parse_pgm, write_pgm

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ConfigurationError", "GeometryError",
    "InvalidParameterError", "MeasurementError", "OfdmSarError",
    "PgmParseError", "SceneError", "StageError",
    "PlatformGeometry", "mean_range",
    "Constellation", "FilterStats", "RadarConfig", "SrsConfig", "chi_stats",
    "gen_symbol_grid", "gen_symbol_indices", "make_qam", "nr_config",
    "PointTarget", "Scene", "load_scene_pgm", "make_point_scene",
    "build_channel_matrix", "check_cp_margin", "draw_noise",
    "grid_from_bytes", "grid_to_bytes", "synthesize_echo",
    "FilterSpec", "apply_tf_filter", "channel_mse_analytic", "filter_gains",
    "azimuth_compress", "azimuth_fft", "focus_image", "range_compress",
    "rcm_shift", "rcmc", "stage_grids",
    "MetricsReport", "analytic_point_metrics",
    "ideal_reference_image", "identity_residual", "islr",
    "measure_mainlobe_width", "nmse", "pedestal_level", "pel",
    "snr_out", "theoretical_resolutions",
    "EnsembleResult", "pilot_comb_mask", "point_target_report",
    "run_point_ensemble", "run_sweep_ensemble",
    "parse_pgm", "write_pgm",
    "__version__",
]
