"""Monte-Carlo ensemble runner: symbols -> echo -> filter -> focused image.

run_sweep_ensemble is the only code that draws a trial: its symbols, its
noise and its random targets' amplitudes.  Over independent trials of a
scene with a deterministic reference target it yields, per (cfg, filter)
point of an SNR/filter sweep, the reductions the quality metrics need
(peak statistics, image MSE versus the ideal response, mean power
images) and trial 0's filtered tf grid, which the CLI renders as its
stage images.  The points share one set of draws (common random numbers)
and one focusing operator (rd_imaging.focusing_operator).  The channel
and the ideal image are built once per sweep, or per trial from its
amplitudes when the scene has random targets.  run_point_ensemble is
the one-point sweep.

The focusing operator F is linear, so each point's images are real
multiples of a few canonical focused grids.  Its noisy image is
clean + sigma * c * F(z * g_ref), with sigma = sqrt(noise_var / 2) and z
the unit noise.  With a constant-modulus alphabet (every |s|^2 = rho, as
QPSK) every gain is a real multiple of conj(s), so g_ref = conj(s) and c
is 1/rho for rf, 1 for mf and 1/(rho + 1/SNR) for wf; otherwise g_ref is
the point's own gain grid and c = 1, so all rf points share one noise
grid, all mf points another, and each wf SNR has its own.  When
chi = s * g is the same on every alphabet point (rf always; every filter
of a constant-modulus alphabet) the noiseless image is
chi * F(channel * act), act being the active cells; otherwise it is
F(channel * s * g), shared by points with equal gains (mf across SNRs).
Each canonical grid is focused once per trial, or once per sweep when it
does not change between trials (F(channel * act) of a deterministic
scene), and every point that uses it reads it.  So a constant-modulus
sweep focuses one grid per trial plus one per sweep instead of two per
point and trial; QAM16 rf/mf/wf at two SNRs focuses 7 per trial plus 1
instead of 12.  The choice follows from the alphabet and the filter
specs alone, so a point run alone reads the same grids by the same
formula and its bits do not depend on the rest of the sweep.

Trials stream through chunks of as many (N, M) complex grids as fit
_CHUNK_BYTES.  One Philox generator per stream (symbols, noise, target
amplitudes) lives across the chunks, so no result depends on the chunk
size.  A noisy sweep of several chunks draws chunk c + 1's unit noise on
a worker thread while chunk c is focused, into two buffers it allocates
once, so two chunks of noise are in flight and share the budget: such a
sweep's chunks hold half as many trials (still at least one, so at one
trial per chunk the worker's buffer is one grid more).  Memory is the
chunk's draws (with random targets, also its channels and ideal images),
the next chunk's noise, the sweep's F(channel * act), the K
canonical grids per trial that several points read, the per-trial
working grids, and the per-point reductions.  A sweep that fits one
chunk makes each point's result only when it reaches that point and
focuses the shared grids for the whole chunk.  A sweep of P points that
spans several chunks holds 2*P*N*M*8 bytes of mean power images until
its last chunk, and focuses the shared grids a block of trials at a
time, a block's grids together fitting _CHUNK_BYTES (or one trial's K
grids where they do not).  When every grid is shared (a constant-modulus
sweep of several noisy points), a chunk keeps only trial 0's symbols and
noise once its shared grids are focused, so the shared noise grids take
the place of its draws.

A mask (the pilot comb) makes the mode "pilot_only", else "data_aided";
run_pilot_ensemble decimates the grid to the pilot period and masks it
to the comb, then runs the identical chain.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .echo import build_channel_matrix, check_cp_margin, draw_noise
from .errors import InvalidParameterError, MeasurementError
from .metrics import (MetricsReport, identity_residual, ideal_reference_image,
                      islr, measure_mainlobe_width, nmse, pel, snr_out,
                      target_bin, theoretical_resolutions)
from .rd_imaging import focusing_operator
from .scene import Scene
from .tf_filter import FilterSpec, apply_tf_filter, filter_gains
from .waveform import (NOISE_STREAM, RCS_STREAM, SYMBOL_STREAM, Constellation,
                       FilterStats, RadarConfig, SrsConfig, _philox, chi_stats,
                       gen_symbol_grid)

# Bytes of one (chunk, N, M) complex128 stack.  Trials stream through
# chunks of this size (half of it per chunk when the next chunk's noise is
# drawn ahead), so the grids held at once do not grow with the trial
# count.
_CHUNK_BYTES = 8 << 20
# Bins on each side of the peak that the reported ISLR counts as mainlobe.
MAINLOBE_HALFWIDTH_BINS = 1


def _chunk_trials(trials: int, n: int, m: int, stacks: int = 1) -> int:
    """Trials per chunk: as many as fit the budget with `stacks` (N, M)
    complex grids per trial."""
    return max(1, min(trials, _CHUNK_BYTES // (stacks * 16 * n * m)))


@dataclass(frozen=True)
class EnsembleResult:
    """Reductions of one Monte-Carlo ensemble for a single reference target."""

    cfg: RadarConfig
    filter_spec: FilterSpec
    stats: FilterStats
    mode: str
    trials: int
    r_bar_ref_m: float
    peak_bin: tuple[int, int]
    alpha_ref: complex
    noiseless_peaks: np.ndarray      # (T,) peak/alpha_ref per noiseless trial
    noisy_peaks: np.ndarray          # (T,) peak/alpha_ref per noisy trial
    mse: np.ndarray                  # (T,) sum|noisy - ideal|^2
    mse_calibrated: np.ndarray       # (T,) same with image scaled by 1/E[chi]
    mean_noisy_power: np.ndarray     # (N, M) E[|noisy image|^2]
    mean_noiseless_power: np.ndarray  # (N, M) E[|noiseless image|^2]
    first_tf: np.ndarray             # (N, M) trial 0's filtered tf grid

    @property
    def peak_sq_mean(self) -> float:
        """Empirical E[R^2(0,0)] of the amplitude-normalized noisy peak."""
        return float(np.mean(np.abs(self.noisy_peaks) ** 2))

    @property
    def nmse(self) -> float:
        sigma_alpha = abs(self.alpha_ref) ** 2
        return nmse(float(np.mean(self.mse)), self.peak_sq_mean, sigma_alpha)

    @property
    def nmse_calibrated(self) -> float:
        sigma_alpha = abs(self.alpha_ref) ** 2
        e_chi = self.stats.chi_mean
        peak_cal = self.peak_sq_mean / e_chi ** 2
        return nmse(float(np.mean(self.mse_calibrated)), peak_cal, sigma_alpha)


class _Reads(NamedTuple):
    """Which canonical focused grids one point's images read: its noiseless
    image is chi times the ("signal", signal) grid, and its noise image
    sqrt(noise_var / 2) * scale times the ("noise", noise) grid."""

    chi: float
    signal: Optional[FilterSpec]
    noise: FilterSpec
    scale: float


def _focus_reads(constellation: Constellation, spec: FilterSpec) -> _Reads:
    """A point's reads, from the alphabet and its filter alone.  With a
    constant modulus rho every gain is conj(s) / level (level rho, 1 or
    rho + 1/SNR) and chi = rho / level; rf has chi = s/s = 1 on any
    alphabet."""
    own = spec if spec.kind == "wf" else FilterSpec(spec.kind)
    power = np.abs(constellation.points) ** 2
    if (power == power[0]).all():
        rho = float(power[0])
        level = (rho if spec.kind == "rf" else 1.0 if spec.kind == "mf"
                 else rho + 1.0 / spec.snr_in_linear)
        return _Reads(rho / level, None, FilterSpec("mf"), 1.0 / level)
    return _Reads(1.0, None if spec.kind == "rf" else own, own, 1.0)


def _focus_grids(focus, recipes, slots, grids: list, channel: np.ndarray,
                 symbols: np.ndarray, noise: Optional[np.ndarray],
                 mask: Optional[np.ndarray]) -> list:
    """Focus one trial's canonical grids `slots` into `grids`, by their
    (part, gain, spec) recipes: ("signal", None, None) is F(channel * act),
    ("signal", g, spec) is F(channel * s * g) and ("noise", g, spec) is
    F(z * g), the gain index g naming each gain grid, computed once."""
    gains = {}
    for j in slots:  # no name holds an operand past its focus
        part, g, spec = recipes[j]
        if spec is None:
            grids[j] = focus(channel if mask is None else channel * mask)
            continue
        if g not in gains:
            gains[g] = filter_gains(symbols, spec)
        grids[j] = focus(channel * symbols * gains[g] if part == "signal"
                         else noise * gains[g])
    return grids


def run_sweep_ensemble(scene: Scene,
                       points: Sequence[tuple[RadarConfig, FilterSpec]],
                       constellation: Constellation, trials: int, seed: int,
                       mask: Optional[np.ndarray] = None,
                       rcmc_method: str = "windowed_sinc",
                       ka_mode: str = "reference") -> Iterator[EnsembleResult]:
    """Yield one EnsembleResult per (cfg, filter_spec) point, in order.

    The point configs may differ only in noise_var and snr_in_linear; each
    result equals run_point_ensemble on its point alone, whatever the trial
    chunk size, and is yielded once the last chunk has reached it."""
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    cfg0 = points[0][0] if points else None
    if cfg0 is None or any(
            replace(cfg, noise_var=cfg0.noise_var,
                    snr_in_linear=cfg0.snr_in_linear) != cfg0
            for cfg, _ in points):
        raise InvalidParameterError(
            "a sweep needs at least one point, and its point configs may "
            "differ only in noise_var and snr_in_linear")
    check_cp_margin(scene, cfg0)
    n, m = cfg0.n_subcarriers, cfg0.n_symbols
    ref = next((t for t in scene.targets
                if t.amplitude_mode == "deterministic"), None)
    if ref is None:
        raise InvalidParameterError(
            "ensemble metrics need at least one deterministic reference target")
    r_bar_ref = ref.mean_range_m(cfg0.platform)
    # first: it rejects a static platform, whose speed the bins divide by
    focus = focusing_operator(cfg0, r_bar_ref, rcmc_method, ka_mode)
    alpha_ref = complex(
        math.sqrt(ref.rcs_var)
        * np.exp(-4j * np.pi * r_bar_ref / cfg0.wavelength_m))
    k_q, m_q = target_bin(ref, cfg0)

    symbol_rng = _philox(seed, SYMBOL_STREAM)
    noise_rng = (_philox(seed, NOISE_STREAM)
                 if any(cfg.noise_var > 0 for cfg, _ in points) else None)
    # (channel, ideal image): built once for a deterministic scene, per
    # trial from its drawn amplitudes when the scene has random targets
    rcs_rng = (_philox(seed, RCS_STREAM)
               if any(t.amplitude_mode == "random" for t in scene.targets)
               else None)
    fixed = (None if rcs_rng is not None else
             (build_channel_matrix(scene, cfg0),
              ideal_reference_image(scene, cfg0)))
    reads = [_focus_reads(constellation, spec) for _, spec in points]
    # the canonical grids as (part, gain spec) keys, then as recipes with
    # their gain spec's index, and each point's (signal, noise) grid index
    keys = list(dict.fromkeys(
        key for (cfg, _), r in zip(points, reads)
        for key in [("signal", r.signal)]
        + ([("noise", r.noise)] if cfg.noise_var > 0 else [])))
    specs = list(dict.fromkeys(spec for _, spec in keys if spec is not None))
    recipes = [(part, None if spec is None else specs.index(spec), spec)
               for part, spec in keys]
    slots = [(keys.index(("signal", r.signal)),
              keys.index(("noise", r.noise)) if cfg.noise_var > 0 else None)
             for (cfg, _), r in zip(points, reads)]
    users = Counter(j for pair in slots for j in pair if j is not None)
    # F(channel * act) of a deterministic scene is focused once per sweep;
    # every other grid that several points read, once per trial
    swept = [None] * len(keys)
    if rcs_rng is None and ("signal", None) in keys:
        _focus_grids(focus, recipes, [keys.index(("signal", None))], swept,
                     fixed[0], None, None, mask)
    shared = [j for j, n_users in users.items()
              if n_users > 1 and swept[j] is None]
    # the grids each point focuses itself, per trial
    own = [[j for j in pair if j is not None and j not in shared
            and swept[j] is None] for pair in slots]
    chunk = _chunk_trials(trials, n, m)
    prefetch = noise_rng is not None and chunk < trials
    if prefetch:
        # the chunk being focused and the next one, drawn meanwhile, share
        # the budget
        chunk = _chunk_trials(trials, n, m, 2)
    # a sweep of several chunks holds every point's result until its last
    # chunk; it focuses the shared grids a block of trials at a time, all
    # of a block's fitting one stack's budget.  A one-chunk sweep focuses
    # them for the whole chunk, so that it makes each point's result only
    # when it reaches that point.
    block = (chunk if chunk == trials
             else _chunk_trials(chunk, n, m, max(1, len(shared))))
    # each point's result is made on first use and filled block by block
    results: list[Optional[EnsembleResult]] = [None] * len(points)
    starts = range(0, trials, chunk)

    # A noisy sweep of several chunks draws chunk c + 1's unit noise on a
    # worker thread while chunk c is focused, in chunk order, into one of
    # two buffers allocated here: the worker allocates nothing, so no draw
    # lands in its own malloc arena.  Leaving the block, however the sweep
    # ends, joins the worker.  Other sweeps start no thread and do not
    # import concurrent.futures, whose import of logging adds ~13 ms to a
    # fresh process.
    if prefetch:
        from concurrent.futures import ThreadPoolExecutor
    with (ThreadPoolExecutor(1) if prefetch else nullcontext()) as worker:
        if prefetch:
            pairs = [np.empty((chunk, n, m, 2)) for _ in range(2)]

            def fill(c):
                size = min(chunk, trials - starts[c])
                return worker.submit(draw_noise, cfg0, seed, n_trials=size,
                                     unit=True, rng=noise_rng,
                                     out=pairs[c % 2][:size])
            pending = fill(0)
        for c, start in enumerate(starts):
            size = min(chunk, trials - start)
            grid = gen_symbol_grid(cfg0, constellation, seed, mask=mask,
                                   trials=size, rng=symbol_rng)
            if prefetch:
                unit_noise = pending.result()
                # chunk c + 1 reuses chunk c - 1's buffer, read no more
                pending = fill(c + 1) if c + 1 < len(starts) else None
            elif noise_rng is not None:
                unit_noise = draw_noise(cfg0, seed, n_trials=size, unit=True,
                                        rng=noise_rng)
            else:
                unit_noise = [None] * size
            truths = ([fixed] * size if rcs_rng is None else
                      [(build_channel_matrix(scene, cfg0, amps),
                        ideal_reference_image(scene, cfg0, amps))
                       for amps in scene.draw_amplitudes(rcs_rng, size)])
            for lo in range(0, size, block):
                hi = min(lo + block, size)
                last = start + hi == trials
                images = ([_focus_grids(focus, recipes, shared, list(swept),
                                        truths[i][0], grid[i], unit_noise[i],
                                        mask) for i in range(lo, hi)]
                          if shared else [swept] * (hi - lo))
                if hi == size and not any(own):
                    # no point focuses a draw itself: only trial 0's, which
                    # first_tf filters, are read again
                    grid, unit_noise = grid[:1].copy(), unit_noise[:1].copy()

                for p, (cfg, filter_spec) in enumerate(points):
                    noise_scale = np.sqrt(cfg.noise_var / 2.0)
                    if results[p] is None:
                        # trial 0's echo as synthesize_echo draws it,
                        # filtered by apply_tf_filter itself: its operand
                        # order sets the bits
                        echo = truths[0][0] * grid[0]
                        if cfg.noise_var > 0:
                            echo = echo + noise_scale * unit_noise[0]
                        results[p] = EnsembleResult(
                            cfg=cfg, filter_spec=filter_spec,
                            stats=chi_stats(constellation, filter_spec),
                            mode=("data_aided" if mask is None
                                  else "pilot_only"),
                            trials=trials, r_bar_ref_m=r_bar_ref,
                            peak_bin=(k_q, m_q), alpha_ref=alpha_ref,
                            noiseless_peaks=np.empty(trials, dtype=complex),
                            noisy_peaks=np.empty(trials, dtype=complex),
                            mse=np.empty(trials),
                            mse_calibrated=np.empty(trials),
                            mean_noisy_power=np.zeros((n, m)),
                            mean_noiseless_power=np.zeros((n, m)),
                            first_tf=apply_tf_filter(echo, grid[0],
                                                     filter_spec))
                        del echo  # not held through the trial loops
                    res = results[p]
                    e_chi = res.stats.chi_mean
                    mean_clean = res.mean_noiseless_power
                    mean_noisy = res.mean_noisy_power
                    chi, sigma = reads[p].chi, noise_scale * reads[p].scale
                    signal, noise = slots[p]

                    for i in range(lo, hi):
                        t = start + i
                        ideal = truths[i][1]
                        grids = images[i - lo]
                        if own[p]:
                            grids = _focus_grids(focus, recipes, own[p],
                                                 list(grids), truths[i][0],
                                                 grid[i], unit_noise[i], mask)
                        clean = grids[signal]
                        if chi != 1.0:
                            clean = chi * clean
                        noisy = clean
                        if noise is not None:
                            noisy = sigma * grids[noise]
                            noisy += clean
                        del grids  # the point's own grids are not held

                        res.noiseless_peaks[t] = clean[k_q, m_q] / alpha_ref
                        res.noisy_peaks[t] = noisy[k_q, m_q] / alpha_ref
                        res.mse[t] = float(np.sum(np.abs(noisy - ideal) ** 2))
                        res.mse_calibrated[t] = float(
                            np.sum(np.abs(noisy / e_chi - ideal) ** 2))
                        mean_clean += np.abs(clean) ** 2
                        mean_noisy += np.abs(noisy) ** 2

                    if last:
                        mean_clean /= trials
                        mean_noisy /= trials
                        results[p] = None
                        yield res
                        # not held into the next
                        del res, mean_clean, mean_noisy
                del images  # free this block's shared grids
            del grid, unit_noise, truths  # free this chunk's draws


def run_point_ensemble(scene: Scene, cfg: RadarConfig,
                       constellation: Constellation, filter_spec: FilterSpec,
                       trials: int, seed: int,
                       mask: Optional[np.ndarray] = None,
                       rcmc_method: str = "windowed_sinc",
                       ka_mode: str = "reference") -> EnsembleResult:
    """Run `trials` independent symbol/noise draws through the full chain:
    the one-point case of run_sweep_ensemble."""
    return next(run_sweep_ensemble(scene, [(cfg, filter_spec)], constellation,
                                   trials, seed, mask, rcmc_method, ka_mode))


def pilot_comb_mask(cfg_decimated: RadarConfig, srs: SrsConfig) -> np.ndarray:
    """Comb activity mask on the pilot-rate grid: every retained symbol is a
    pilot symbol, so only the subcarrier comb pattern remains."""
    srs.check_fits(cfg_decimated.n_subcarriers)
    comb = np.zeros((cfg_decimated.n_subcarriers, cfg_decimated.n_symbols),
                    dtype=bool)
    comb[srs.tone_indices(), :] = True
    return comb


def run_pilot_ensemble(scene: Scene, cfg_full: RadarConfig, srs: SrsConfig,
                       constellation: Constellation, filter_spec: FilterSpec,
                       trials: int, seed: int,
                       rcmc_method: str = "windowed_sinc",
                       ka_mode: str = "reference") -> EnsembleResult:
    """Pilot-only chain: decimated symbol grid restricted to the pilot comb."""
    cfg_p = cfg_full.decimated(srs.period_symbols)
    comb = pilot_comb_mask(cfg_p, srs)
    return run_point_ensemble(scene, cfg_p, constellation, filter_spec,
                              trials, seed, mask=comb, rcmc_method=rcmc_method, ka_mode=ka_mode)


def point_target_report(result: EnsembleResult) -> MetricsReport:
    """Assemble the standard quality report from ensemble reductions.

    The reported islr_db counts MAINLOBE_HALFWIDTH_BINS bins on each side
    of the peak as mainlobe; the identity residual is always evaluated with
    the single-bin mainlobe and the shared noisy-peak normalization under
    which the decomposition is exact, and is reported only for single-target
    scenes.
    """
    cfg = result.cfg
    rho_r, rho_a = theoretical_resolutions(cfg, result.r_bar_ref_m)
    k_q, m_q = result.peak_bin
    width_r = measure_mainlobe_width(
        np.sqrt(result.mean_noiseless_power[:, m_q]), peak_bin=k_q)
    width_a = measure_mainlobe_width(
        np.sqrt(result.mean_noiseless_power[k_q, :]), peak_bin=m_q)
    sigma_alpha = abs(result.alpha_ref) ** 2
    noise_var = cfg.noise_var

    peak_sq = result.peak_sq_mean
    islr_report = islr(result.mean_noisy_power, result.peak_bin,
                       MAINLOBE_HALFWIDTH_BINS)
    islr_single = islr(result.mean_noisy_power, result.peak_bin, 0)
    pel_value = pel(result.noiseless_peaks, cfg)
    snr_value = snr_out(peak_sq, result.stats, sigma_alpha, noise_var)
    if noise_var > 0 and not 0 < snr_value < math.inf:
        raise MeasurementError(
            f"output SNR {snr_value} at noise variance {noise_var} is outside "
            f"the float64 range")
    nmse_value = result.nmse
    residual = identity_residual(islr_single, pel_value, peak_sq, snr_value,
                                 nmse_value)

    islr_db = 10.0 * math.log10(islr_report) if islr_report > 0 else -math.inf
    snr_db = (math.inf if math.isinf(snr_value)
              else 10.0 * math.log10(snr_value))
    return MetricsReport(
        rho_r_m=rho_r, rho_a_m=rho_a,
        measured_rho_r_m=width_r * cfg.range_pitch_m,
        measured_rho_a_m=width_a * cfg.azimuth_pitch_m,
        islr_db=islr_db, pel=pel_value, snr_out_db=snr_db, nmse=nmse_value,
        identity_residual=residual, trials=result.trials,
        filter=result.filter_spec.kind, mode=result.mode)
