"""Monte-Carlo ensemble runner: symbols -> echo -> filter -> focused image.

run_sweep_ensemble is the only code that draws a trial: its symbols, its
noise and its random targets' amplitudes.  Over independent trials of a
scene with a deterministic reference target it yields, per (cfg, filter)
point of an SNR/filter sweep, the reductions the quality metrics need
(peak statistics, image MSE versus the ideal response, mean power
images).  The points share one set of draws (common random numbers)
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

Trials stream through chunks.  A sweep whose draws fit _CHUNK_BYTES, one
(N, M) complex grid per trial, runs as one chunk.  Otherwise each chunk
holds as many trials as fit the budget with, per trial, the chunk's
draws, the next chunk's symbols and, in a noisy sweep, its unit noise,
and the K grids that several points read (the shared grids).  One Philox
generator per stream (symbols, noise, target amplitudes) lives across the
chunks, so no result depends on the chunk size.  A sweep of several
chunks draws chunk c + 1's symbols and unit noise on a worker thread
while chunk c is focused, into two pairs of buffers it allocates once;
the main thread draws only the target amplitudes, builds the channels,
focuses and reduces.

Every chunk runs in one order: draw it, focus its shared grids for every
trial, then run each point over the chunk's trials, focusing the point's
own grids and reducing.  The sweep allocates its working grids once, and
only those some point reads: K buffers per trial of a chunk, one signal
and one noise buffer that every point's own grids reuse in turn, and one
scratch grid per kind of reduction (chi * clean, the noisy image, its
residual, which also holds the gain grid while a trial is focused, and
|.|^2).  Every product, focus pass and reduction of a trial writes into
them, in the operand order of the out-of-place chain, so focusing and
reducing a trial allocates no complex grid, and the bits are those of
fresh grids.  Each MSE is a sum of squares over the residual's float64
view, never negative.  When no point focuses a grid of its own (a
constant-modulus sweep of several noisy points), a one-chunk sweep frees
its symbols and noise once its shared grids are focused.  Memory is the
chunk's draws (with random targets, also its channels and ideal images),
the next chunk's draws, the shared grids, the sweep's F(channel * act),
the working grids and the per-point reductions, which are all a result
keeps.  A sweep of P points that spans several chunks holds their
2*P*N*M*8 bytes of mean power images until its last chunk.  A one-chunk
sweep makes each point's result when it reaches that point and yields it
before the next; its K*T shared grids are outside the budget.

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
from .tf_filter import FilterSpec, filter_gains
from .waveform import (NOISE_STREAM, RCS_STREAM, SYMBOL_STREAM, Constellation,
                       FilterStats, RadarConfig, SrsConfig, _philox, chi_stats,
                       gen_symbol_grid)

# Bytes of the grids one chunk of trials holds: its draws, and in a sweep
# of several chunks also the next chunk's noise and its shared grids, so
# the grids held at once do not grow with the trial count.
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


def _plan(grids) -> list:
    """((part, gain spec), buffer) pairs as (gain spec, [(part, buffer),
    ...]) groups, so that each gain grid is computed once per trial."""
    groups: dict = {}
    for (part, spec), out in grids:
        groups.setdefault(spec, []).append((part, out))
    return list(groups.items())


def _focus_grids(focus, plan: list, gains: np.ndarray, channel: np.ndarray,
                 symbols: np.ndarray, noise: Optional[np.ndarray],
                 mask: Optional[np.ndarray]) -> None:
    """Focus one trial's canonical grids in place into their buffers, by a
    _plan: ("signal", None) is F(channel * act), ("signal", spec) is
    F(channel * s * g) and ("noise", spec) is F(z * g), g being the spec's
    gain grid, which is written into `gains`."""
    for spec, outs in plan:
        if spec is not None:
            filter_gains(symbols, spec, out=gains)
        for part, out in outs:
            if spec is None:
                x = (channel if mask is None
                     else np.multiply(channel, mask, out=out))
            elif part == "signal":
                x = np.multiply(channel, symbols, out=out)
                x *= gains
            else:
                x = np.multiply(noise, gains, out=out)
            focus(x, out=out)


def _power(grid: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.abs(grid) ** 2, bit for bit, written into out."""
    return np.square(np.abs(grid, out=out), out=out)


def _residual_power(image: np.ndarray, reference: np.ndarray,
                    out: np.ndarray) -> float:
    """sum |image - reference|^2, with the residual written into out: a sum
    of squares over its float64 (re, im) view, so it is never negative.
    einsum runs without BLAS, whose threads would compete with the draw
    worker."""
    values = np.subtract(image, reference, out=out).view(float).ravel()
    return float(np.einsum("i,i->", values, values))


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
    # each point's canonical grids as (part, gain spec) keys: its noiseless
    # image's and, if it is noisy, its noise image's
    wants = [(("signal", r.signal),
              ("noise", r.noise) if cfg.noise_var > 0 else None)
             for (cfg, _), r in zip(points, reads)]
    users = Counter(key for pair in wants for key in pair if key)
    # F(channel * act) of a deterministic scene is focused once per sweep;
    # every other grid that several points read, once per trial
    swept = {}
    if rcs_rng is None and ("signal", None) in users:
        swept[("signal", None)] = focus(
            fixed[0] if mask is None else fixed[0] * mask)
    shared = [key for key, k in users.items() if k > 1 and key not in swept]
    chunk = _chunk_trials(trials, n, m)
    prefetch = chunk < trials
    if prefetch:
        # per trial: the chunk's draws, the next chunk's symbols and, in a
        # noisy sweep, its noise (drawn meanwhile), and the chunk's shared
        # grids fit the budget together
        chunk = _chunk_trials(trials, n, m,
                              2 + (noise_rng is not None) + len(shared))

    # The grids a trial is focused into and reduced in, allocated once and
    # never touched by the draw worker: a chunk's worth of each shared
    # grid, one signal and one noise grid that every point's own grids
    # reuse in turn, and one scratch grid per kind of reduction; each only
    # if some point reads it.  `diff` holds the gain grid while a trial's
    # grids are focused; the other scratch grids are made when the first
    # chunk reaches its points, after a chunk whose draws no point reads
    # again has dropped them.
    def empty(*shape, dtype=complex):
        return np.empty(shape + (n, m), dtype=dtype)
    # each canonical grid's buffer for each trial of a chunk
    at = {key: [image] * chunk for key, image in swept.items()}
    at.update((key, list(empty(chunk))) for key in shared)
    own = [[key for key in pair if key and key not in at] for pair in wants]
    reused = {part: empty() for part in ("signal", "noise")
              if any(key[0] == part for keys in own for key in keys)}
    at.update((key, [reused[key[0]]] * chunk) for keys in own for key in keys)
    # the keys resolved once: trial i of a chunk focuses its shared grids
    # by shared_plans[i]; point p focuses its own grids by own_plans[p] and
    # reads its (noiseless, noise) grids from reads_at[p][i]
    shared_plans = [_plan((key, at[key][i]) for key in shared)
                    for i in range(chunk)]
    own_plans = [_plan((key, at[key][0]) for key in keys) for keys in own]
    reads_at = [list(zip(at[signal], at[noise] if noise else [None] * chunk))
                for signal, noise in wants]
    diff, power = empty(), None

    # each point's result is made on first use and filled chunk by chunk
    results: list[Optional[EnsembleResult]] = [None] * len(points)
    starts = range(0, trials, chunk)

    def draw(size, symbols=None, noise=None):
        """A chunk's symbols and unit noise, in chunk order on each stream,
        into the given buffers if any."""
        symbols = gen_symbol_grid(cfg0, constellation, seed, mask=mask,
                                  trials=size, rng=symbol_rng, out=symbols)
        if noise_rng is None:
            return symbols, [None] * size
        return symbols, draw_noise(cfg0, seed, n_trials=size, unit=True,
                                   rng=noise_rng, out=noise)

    # A sweep of several chunks draws chunk c + 1 on a worker thread while
    # chunk c is focused, into one of two pairs of buffers allocated here:
    # the worker allocates no stack, only one (N, M) grid of symbol indices
    # at a time, so no draw lands in its own malloc arena.  The symbol and
    # noise streams keep their draw order, and only the worker draws them.
    # Leaving the with statement, however the sweep ends, joins the worker.
    # A one-chunk sweep starts no thread and does not import
    # concurrent.futures, whose import of logging adds ~13 ms to a fresh
    # process.
    if prefetch:
        from concurrent.futures import ThreadPoolExecutor
    with (ThreadPoolExecutor(1) if prefetch else nullcontext()) as worker:
        if prefetch:
            symbol_bufs = empty(2, chunk)
            noise_bufs = (np.empty((2, chunk, n, m, 2))
                          if noise_rng is not None else None)

            def fill(c):
                size, b = min(chunk, trials - starts[c]), c % 2
                return worker.submit(
                    draw, size, symbol_bufs[b, :size],
                    None if noise_bufs is None else noise_bufs[b, :size])
            pending = fill(0)
        for c, start in enumerate(starts):
            size = min(chunk, trials - start)
            last = start + size == trials
            if prefetch:
                grid, unit_noise = pending.result()
                # chunk c + 1 reuses chunk c - 1's buffers, read no more
                pending = fill(c + 1) if c + 1 < len(starts) else None
            else:
                grid, unit_noise = draw(size)
            truths = ([fixed] * size if rcs_rng is None else
                      [(build_channel_matrix(scene, cfg0, amps),
                        ideal_reference_image(scene, cfg0, amps))
                       for amps in scene.draw_amplitudes(rcs_rng, size)])
            for i in range(size):
                _focus_grids(focus, shared_plans[i], diff, truths[i][0],
                             grid[i], unit_noise[i], mask)
            if not any(own):
                # no point focuses a draw itself: none is read again
                grid = unit_noise = None
            if power is None:
                scaled = (empty() if any(r.chi != 1.0 for r in reads)
                          else None)
                noisy_grid = empty() if noise_rng is not None else None
                power = empty(dtype=float)

            for p, (cfg, filter_spec) in enumerate(points):
                if results[p] is None:
                    results[p] = EnsembleResult(
                        cfg=cfg, filter_spec=filter_spec,
                        stats=chi_stats(constellation, filter_spec),
                        mode="data_aided" if mask is None else "pilot_only",
                        trials=trials, r_bar_ref_m=r_bar_ref,
                        peak_bin=(k_q, m_q), alpha_ref=alpha_ref,
                        noiseless_peaks=np.empty(trials, dtype=complex),
                        noisy_peaks=np.empty(trials, dtype=complex),
                        mse=np.empty(trials), mse_calibrated=np.empty(trials),
                        mean_noisy_power=np.zeros((n, m)),
                        mean_noiseless_power=np.zeros((n, m)))
                res = results[p]
                e_chi = res.stats.chi_mean
                mean_clean = res.mean_noiseless_power
                mean_noisy = res.mean_noisy_power
                chi = reads[p].chi
                sigma = np.sqrt(cfg.noise_var / 2.0) * reads[p].scale
                for i in range(size):
                    t = start + i
                    ideal = truths[i][1]
                    signal, noise = reads_at[p][i]
                    if own[p]:
                        _focus_grids(focus, own_plans[p], diff, truths[i][0],
                                     grid[i], unit_noise[i], mask)
                    clean = signal
                    if chi != 1.0:
                        clean = np.multiply(chi, clean, out=scaled)
                    res.noiseless_peaks[t] = clean[k_q, m_q] / alpha_ref
                    mean_clean += _power(clean, power)
                    noisy = clean
                    if noise is not None:
                        noisy = np.multiply(sigma, noise, out=noisy_grid)
                        noisy += clean

                    res.noisy_peaks[t] = noisy[k_q, m_q] / alpha_ref
                    res.mse[t] = _residual_power(noisy, ideal, diff)
                    res.mse_calibrated[t] = _residual_power(
                        noisy, np.multiply(e_chi, ideal, out=diff),
                        diff) / e_chi ** 2
                    mean_noisy += _power(noisy, power)

                if last:
                    mean_clean /= trials
                    mean_noisy /= trials
                    results[p] = None
                    yield res
                    del res, mean_clean, mean_noisy  # not held into the next
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
    of the peak as mainlobe; the identity residual, reported for every
    scene, is evaluated with the single-bin mainlobe and the shared
    noisy-peak normalization, under which the decomposition is exact for
    one on-grid target only.
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
