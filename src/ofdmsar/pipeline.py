"""Monte-Carlo ensemble runner: symbols -> echo -> filter -> focused image.

The one module that draws and lays a pilot comb on a grid.
run_sweep_ensemble draws every trial of an (SNR, filter) sweep, and
run_point_ensemble is its one-point case; the only other draw is
filtered_trial_zero, the CLI's stage path, whose docstring states its bit
contract with the sweep's trial 0.  The sweep's contract:

Returns and reference.  Per (cfg, filter) point, in order, an
EnsembleResult of the reductions its report reads, not images.  The
reference image is F(channel), F being the sweep's one focusing operator
(rd_imaging.focusing_operator) and the channel the run grid's: chi = 1 on
every cell, no comb, no filter and no noise.  So how a target focuses, on
a bin or between bins, is F's alone and the same in image and reference.

Determinism.  One Philox generator per stream (symbols, noise, target
amplitudes) draws the trials in trial order, and every point reads the
same draws (common random numbers).  So no result depends on the thread
that draws or on the sweep's other points: each equals run_point_ensemble
on its point alone.

Linearity.  F is linear, so each point's images are real multiples of a
few canonical focused grids: its noiseless image is chi * F(channel * act),
act being the active cells, where chi is the same on every alphabet point
(rf always), else F(chi * channel); its noise image is
sqrt(noise_var / 2) * c * F(z * g) for unit noise z and gains g.  With a
constant-modulus alphabet every gain is a real multiple of conj(s), so
every point reads F(channel * act) and one noise grid; otherwise points of
equal gains share theirs.  The alphabet, the filter specs and the comb
alone choose the grids (_focus_reads), so a point run alone reads the same
grids by the same formula.  Each distinct grid is focused once per trial,
or once per sweep when no trial changes it.

Why the range-Doppler reductions are exact.  A canonical grid stays in
the range-Doppler domain: F(x) = ifft_M(A * Y), Y = range_doppler(x),
with the azimuth multiplier A a phase, |A|^2 = N on every entry.  By
Parseval each row has sum |ifft_M(v)|^2 = sum |v|^2 / M, so
sum |F(x)|^2 = (N / M) sum |Y|^2 and Re <F(x), F(y)> = (N / M)
Re <Y_x, Y_y>: the total power and both MSEs are N / M times sums over
range-Doppler grids, the reference entering as R = range_doppler(channel).
The peaks, the mainlobe and the azimuth cuts read image rows, each an
M-point IFFT of A * Y, and the range cut reads column m_q as one weighted
sum over p of Y * A * e^{2 pi i p m_q / M} / M.  So no trial forms an
image, and a point combines its grids' sums with scalars, O(N + M) per
trial.

Numerics.  Each residual |chi S - c R|^2 (c = 1 for mse, E[chi] for
mse_calibrated) is a sum of squares of a formed grid, never expanded into
|S|^2 - 2 Re <S, R> + |R|^2, which cancels and goes negative.  A signal
grid S is held as G = S - base * R, base 1 where S is nearer R than 0 (in
mean square, E[chi] > 1/2 without a comb; never with one, where S - R
holds the inactive cells' channel), so no grid is the difference of two
focused grids that nearly cancel.  Only the independent noise Z is split
out, its cross terms taken against G and R:
Re <chi S - c R, Z> = chi Re <G, Z> + (chi base - c) Re <R, Z>.  The sums
run over float64 views without BLAS, whose threads would compete with the
draw worker for the cores.

Memory.  A sweep holds the operator's multipliers, R, at most one signal
and one noise buffer, the grids no trial changes, and one trial's draws,
or two while a worker draws; with random targets, also the trial's
channel and reference.  Beyond them it holds O(N + M) per point and
row-block temporaries, so none of it grows with the points, and a trial
of a deterministic scene allocates no (N, M) grid.
python tools/sweep_peak.py SCENARIO measures a sweep's peak in grids.

Draw schedule.  A sweep of several trials whose draws exceed
_PREFETCH_BYTES draws trial t + 1 on a worker thread while trial t is
focused; any other sweep draws on the calling thread and starts no
thread.

Comb and mode.  An srs (the pilot comb) makes the mode "pilot_only", else
"data_aided".  The points' grid is then the pilot-rate one, the sent grid
decimated to srs.period_symbols, and the sweep lays the comb on it once
(pilot_comb_mask) and runs the identical chain.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .echo import build_channel_matrix, check_cp_margin, draw_noise
from .errors import InvalidParameterError, MeasurementError
from .metrics import (MetricsReport, identity_residual, islr,
                      measure_mainlobe_width, nmse, pel, snr_out, target_bin,
                      theoretical_resolutions)
from .rd_imaging import focusing_operator
from .scene import Scene
from .tf_filter import FilterSpec, filter_gains
from .waveform import (NOISE_STREAM, RCS_STREAM, SYMBOL_STREAM, Constellation,
                       FilterStats, RadarConfig, SrsConfig, _gather, _philox,
                       _row_blocks, chi_stats, gen_symbol_indices)

# Bytes of a sweep's draws, over all its trials, above which each trial is
# drawn on a worker thread while the one before it is focused.
_PREFETCH_BYTES = 8 << 20
# Bins on each side of the peak that the reported ISLR counts as mainlobe.
MAINLOBE_HALFWIDTH_BINS = 1
# Largest Doppler step K_a T^2 between adjacent run-grid symbols at the
# reference range, in units of the symbol rate 1/T, so K_a T^2 M <=
# MAX_DOPPLER_STEP * M.  At 1/2 the sampled azimuth chirp repeats every two
# symbols; reference targets between two bins stop focusing from 0.47 on
# (8 to 64 symbols, any K_a or RCMC).
MAX_DOPPLER_STEP = 0.45


@dataclass(frozen=True)
class EnsembleResult:
    """Reductions of one Monte-Carlo ensemble for a single reference target.

    The power fields are ensemble means of |image|^2: the mainlobe's
    pixels are those within MAINLOBE_HALFWIDTH_BINS of peak_bin, taken
    cyclically, and the range and azimuth cuts run down the peak's column
    and along its row."""

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
    reference_peaks: np.ndarray      # (T,) the reference image's, the same
    mse: np.ndarray                  # (T,) sum|noisy - reference|^2
    mse_calibrated: np.ndarray       # (T,) same with image scaled by 1/E[chi]
    noisy_power_sum: float           # E[sum |noisy image|^2]
    noisy_mainlobe_power: np.ndarray     # (3, 3) E|noisy|^2 at the mainlobe
    noisy_range_power: np.ndarray        # (N,) E|noisy|^2 down the peak column
    noisy_azimuth_power: np.ndarray      # (M,) E|noisy|^2 along the peak row
    noiseless_range_power: np.ndarray    # (N,) the same cuts of the
    noiseless_azimuth_power: np.ndarray  # (M,)  noiseless image

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


# EnsembleResult's ensemble means, summed over the trials as they run
_MEANS = ("noisy_power_sum", "noisy_mainlobe_power", "noisy_range_power",
          "noisy_azimuth_power", "noiseless_range_power",
          "noiseless_azimuth_power")


class _Reads(NamedTuple):
    """Which canonical focused grids one point's images read: its noiseless
    image is chi times the signal grid of gain spec `signal` (None for
    F(channel * act)), and its noise image sqrt(noise_var / 2) * scale
    times the noise grid of gain spec `noise`."""

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


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b> = sum Re(a conj(b)) of two contiguous grids, over their
    float64 (re, im) views, without BLAS, whose threads would compete with
    the draw worker.  _inner(a, a) = sum |a|^2 is a sum of squares, so it
    is never negative."""
    return float(np.einsum("i,i->", a.view(float).ravel(),
                           b.view(float).ravel()))


class _Taken(NamedTuple):
    """One canonical grid's per-trial reductions: the image rows
    k_q - hw .. k_q + hw and the image column m_q, sum |Y|^2 of its
    range-Doppler form Y, and, for a signal grid S, sum |S - k R|^2 for
    each residual scale k it was asked for."""

    rows: np.ndarray
    col: np.ndarray
    power: float
    residuals: dict


def run_sweep_ensemble(scene: Scene,
                       points: Sequence[tuple[RadarConfig, FilterSpec]],
                       constellation: Constellation, trials: int, seed: int,
                       srs: Optional[SrsConfig] = None,
                       rcmc_method: str = "windowed_sinc",
                       ka_mode: str = "reference") -> list[EnsembleResult]:
    """One EnsembleResult per (cfg, filter_spec) point, in order.

    The point configs may differ only in noise_var and snr_in_linear; each
    result equals run_point_ensemble on its point alone, whichever thread
    draws the trials.  With an srs the symbols lie on its pilot comb
    (pilot_comb_mask on the points' grid, the pilot-rate one) and the mode
    is "pilot_only", else every cell is active and it is "data_aided".
    For a scene without random targets, where some point reads
    F(channel * act) (rf, or any filter of a constant-modulus alphabet),
    that image is built before the draws, and it is the noiseless image of
    each such point up to a constant factor: if point_target_report could
    not measure its range or azimuth -3 dB width, the sweep raises that
    MeasurementError there, before any draw buffer exists."""
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
    mask = None if srs is None else pilot_comb_mask(cfg0, srs)
    check_cp_margin(scene, cfg0)
    n, m = cfg0.n_subcarriers, cfg0.n_symbols
    ref = scene.reference_target()
    r_bar_ref = ref.mean_range_m(cfg0.platform)
    # first: it rejects a static platform, whose speed the bins divide by
    focus = focusing_operator(cfg0, r_bar_ref, rcmc_method, ka_mode)
    step = cfg0.azimuth_rate_at(r_bar_ref) * cfg0.total_symbol_s ** 2
    if step > MAX_DOPPLER_STEP:
        raise InvalidParameterError(
            f"K_a T^2 = {step:.3g} at the reference range exceeds "
            f"{MAX_DOPPLER_STEP}: the {n}x{m} run grid undersamples the "
            f"reference target's azimuth chirp")
    alpha_ref = complex(
        math.sqrt(ref.rcs_var)
        * np.exp(-4j * np.pi * r_bar_ref / cfg0.wavelength_m))
    k_q, m_q = target_bin(ref, cfg0)

    # the column m_q is sum_p Y * A * e with e = e^{2 pi i p m_q / M} / M.
    # With one row of A (reference K_a) it weighs Y by the one row A * e;
    # with one row per range bin it takes A and e as two factors of the
    # sum, so that no (N, M) weight grid is formed
    hw = MAINLOBE_HALFWIDTH_BINS
    azimuth = focus.azimuth_multiplier
    rows = np.arange(k_q - hw, k_q + hw + 1) % n
    azimuth_rows = np.broadcast_to(azimuth, (n, m))[rows]
    phase = np.exp(2j * np.pi * (np.arange(m) * m_q % m) / m) / m
    if azimuth.shape[0] == 1:
        weights = azimuth * phase

        def column(grid):
            return np.einsum("...p,...p->...", grid, weights)
    else:
        def column(grid):
            return np.einsum("np,np,p->n", grid, azimuth, phase)
    lobe = np.arange(m_q - hw, m_q + hw + 1) % m

    def take(grid):
        """The _Taken of a range-Doppler grid, without residuals."""
        image_rows = np.multiply(grid[rows], azimuth_rows)
        np.fft.ifft(image_rows, axis=-1, out=image_rows)
        return _Taken(image_rows, column(grid), _inner(grid, grid), {})

    def form_residuals(taken, grid, base, reference, scales, out):
        """Adds to a signal grid S's _Taken each |S - k R|^2, k in scales,
        that it lacks, from `grid` holding G = S - base * R: the sum of
        squares of G + (base - k) R, formed in `out`, or, where S is R
        itself (grid None, G = 0), (base - k)^2 |R|^2."""
        for k in set(scales) - taken.residuals.keys():
            if grid is None:
                taken.residuals[k] = (base - k) ** 2 * taken.power
            else:
                np.multiply(base - k, reference, out=out)
                out += grid
                taken.residuals[k] = _inner(out, out)

    def take_signal(grid, base, reference, r_taken):
        """The _Taken of a signal grid S, given R and its _Taken, from `grid`
        holding S - base * R, with one residual, |S - base * R|^2, the
        grid's own sum of squares; form_residuals adds the others.  With
        base 1, S's rows and column are R's plus the grid's, and
        |S|^2 = |R|^2 + 2 Re <S - R, R> + |S - R|^2."""
        own = take(grid)
        own.residuals[base] = own.power
        if not base:
            return own
        return _Taken(r_taken.rows + own.rows, r_taken.col + own.col,
                      r_taken.power + 2.0 * _inner(grid, reference)
                      + own.power, own.residuals)

    reads = [_focus_reads(constellation, spec) for _, spec in points]
    stats = [chi_stats(constellation, spec) for _, spec in points]

    # per point: its result's arrays, its scalars and its residual scales.
    # chi S - c R = chi (S - k R) with k = c / chi, for c = 1 (mse) and
    # c = E[chi] (mse_calibrated).  The points are grouped by the spec of
    # their signal grid, None for F(channel * act), as [the spec of the one
    # noise grid the group's noisy points read, the scales of its signal
    # grid, its points]
    tasks = []
    groups = {}
    for (cfg, _), r, stat in zip(points, reads, stats):
        sums = dict(noiseless_peaks=np.empty(trials, dtype=complex),
                    noisy_peaks=np.empty(trials, dtype=complex),
                    reference_peaks=np.empty(trials, dtype=complex),
                    mse=np.empty(trials), mse_calibrated=np.empty(trials),
                    noisy_power_sum=0.0,
                    noisy_mainlobe_power=np.zeros((2 * hw + 1,) * 2),
                    noisy_range_power=np.zeros(n),
                    noisy_azimuth_power=np.zeros(m),
                    noiseless_range_power=np.zeros(n),
                    noiseless_azimuth_power=np.zeros(m))
        e_chi = stat.chi_mean
        ks = (1.0 / r.chi, e_chi / r.chi)
        group = groups.setdefault(r.signal, [None, {}, []])
        if cfg.noise_var > 0:
            group[0] = r.noise
        group[1].update(dict.fromkeys(ks))
        tasks.append((sums, r.chi, np.sqrt(cfg.noise_var / 2.0) * r.scale,
                      e_chi, ks, cfg.noise_var > 0))
        group[2].append(tasks[-1])
    # Per group: (its signal grid's table over constellation.table,
    # chi - base with chi = s * g, 0 at the sentinel, or None for
    # F(channel * act), which truth() builds; base; its scales; its noise
    # grid's gain table, or None; its points)
    plan = []
    for signal, (noise, scales, members) in groups.items():
        table = None
        base = float(mask is None and (signal is None or chi_stats(
            constellation, signal).chi_mean > 0.5))
        if signal is not None:
            table = (constellation.table
                     * filter_gains(constellation.table, signal) - base)
        plan.append((table, base, scales, None if noise is None
                     else filter_gains(constellation.table, noise), members))
    per_trial_signal = any(table is not None for table, *_ in plan)
    with_noise = [i for i, group in enumerate(plan) if group[3] is not None]
    # Two grids serve every group of a trial: the signal buffer takes its
    # signal grid, and the noise buffer its noise grid, but the last one,
    # which is focused in the trial's unit noise, read by no group after
    # it.  A formed signal grid (each per-trial one, and F(channel * act)
    # under a comb) forms its S - k R, k != base, in its group's spent
    # noise grid, or in the noise buffer in a group without noise
    last = with_noise[-1] if with_noise else None
    spare = (np.empty((n, m), dtype=complex)
             if len(with_noise) > 1 or any(
                 (table is not None or mask is not None) and gain is None
                 and set(scales) - {base}
                 for table, base, scales, gain, _ in plan)
             else None)
    signal_buffer = (np.empty((n, m), dtype=complex) if per_trial_signal
                     else None)

    def truth(amplitudes=None):
        """(channel, R, R's _Taken, F(channel * act)'s _Taken, its grid),
        R = range_doppler(channel) being the range-Doppler form of the
        reference image F(channel), so image - reference =
        ifft_M(A * (Y - R)).  F(channel * act) is R itself without a comb
        (its grid None, G = 0), and is focused into a grid of its own, held
        as S, with one.  The channel is None where no per-trial signal
        grid reads it, and is dropped before F(channel * act) is focused.
        No residual is formed here: the trial forms them."""
        channel = build_channel_matrix(scene, cfg0, amplitudes)
        reference = focus.range_doppler(channel)
        r_taken = take(reference)
        grid = (None if mask is None or None not in groups
                else np.multiply(channel, mask))
        if not per_trial_signal:
            channel = None
        if grid is None:
            return channel, reference, r_taken, r_taken, None
        focus.range_doppler(grid, out=grid)
        return (channel, reference, r_taken,
                take_signal(grid, 0.0, reference, r_taken), grid)

    symbol_rng = _philox(seed, SYMBOL_STREAM)
    noise_rng = _philox(seed, NOISE_STREAM) if with_noise else None
    # the truth: built once for a deterministic scene, before any draw, and
    # per trial from its drawn amplitudes when the scene has random targets
    rcs_rng = (_philox(seed, RCS_STREAM)
               if any(t.amplitude_mode == "random" for t in scene.targets)
               else None)
    fixed = truth() if rcs_rng is None else None
    if fixed is not None and None in groups:
        # F(channel * act), whose multiples are the noiseless images of the
        # points that read it: one the report cannot measure fails here
        act_taken = fixed[3]
        _mainlobe_widths(np.abs(act_taken.col), np.abs(act_taken.rows[hw]),
                         (k_q, m_q))
    # Parseval's factor from range-Doppler sums of squares to the image's
    ratio = n / m

    # Bytes per cell of one trial's draws: its symbol index and, in a noisy
    # sweep, its unit noise, drawn into a pair of buffers, an index grid and
    # a unit-noise grid, or into two pairs where a worker draws.  The
    # buffers are allocated here: a draw allocates only a row block of int64
    # indices at a time, so none lands in the worker's own malloc arena.
    # The symbol and noise streams keep their draw order, on one thread.
    # Leaving the with statement, however the sweep ends, joins the worker.
    # A sweep drawn on this thread does not import concurrent.futures, which
    # imports logging, to keep a fresh process's start short.
    cell = constellation.index_dtype.itemsize + 16 * (noise_rng is not None)
    prefetch = 1 < trials and trials * cell * n * m > _PREFETCH_BYTES
    index_bufs = np.empty((1 + prefetch, n, m),
                          dtype=constellation.index_dtype)
    noise_bufs = (np.empty((1 + prefetch, n, m, 2))
                  if noise_rng is not None else None)

    def draw(t):
        """Trial t's symbol indices and unit noise, in trial order on each
        stream, into buffer pair t % 2 (or the one pair)."""
        b = t % len(index_bufs)
        indices = gen_symbol_indices(cfg0, constellation, seed, mask=mask,
                                     rng=symbol_rng, out=index_bufs[b])
        if noise_bufs is None:
            return indices, None
        return indices, draw_noise(cfg0, seed, unit=True, rng=noise_rng,
                                   out=noise_bufs[b])

    if prefetch:
        from concurrent.futures import ThreadPoolExecutor
    with (ThreadPoolExecutor(1) if prefetch else nullcontext()) as worker:
        if prefetch:
            pending = worker.submit(draw, 0)
        for t in range(trials):
            if prefetch:
                indices, unit_noise = pending.result()
                # trial t + 1 refills trial t - 1's buffers, read no more
                if t + 1 < trials:
                    pending = worker.submit(draw, t + 1)
            else:
                indices, unit_noise = draw(t)
            channel, reference, r_taken, act_taken, act_grid = (
                fixed if rcs_rng is None
                else truth(scene.draw_amplitudes(rcs_rng)))
            for i, (table, base, scales, gain, members) in enumerate(plan):
                # the group's signal grid, held as S - base * R
                grid, clean = act_grid, act_taken
                if table is not None:
                    grid = signal_buffer
                    np.multiply(_gather(table, indices, grid), channel,
                                out=grid)
                    focus.range_doppler(grid, out=grid)
                    clean = take_signal(grid, base, reference, r_taken)
                # its noise grid Z, its gains gathered a row block at a
                # time, the last one in the unit noise, with
                # Re <S - base * R, Z> (0 where that is 0) and Re <R, Z>
                noise = unit_noise if i == last else spare
                if gain is not None:
                    for block in _row_blocks(indices.shape, 24):
                        np.multiply(unit_noise[block],
                                    np.take(gain, indices[block]),
                                    out=noise[block])
                    focus.range_doppler(noise, out=noise)
                    z = take(noise)
                    sz = 0.0 if grid is None else _inner(grid, noise)
                    rz = _inner(reference, noise)
                # the noise grid is spent: the signal grid forms the
                # |S - k R|^2 it lacks there, or in a group without noise
                # in the noise buffer (a fixed truth's F(channel * act) at
                # trial 0 only, as it keeps them)
                form_residuals(clean, grid, base, reference, scales, noise)
                for sums, chi, sigma, e_chi, ks, noisy_point in members:
                    clean_rows, clean_col = chi * clean.rows, chi * clean.col
                    sums["noiseless_peaks"][t] = (clean_rows[hw, m_q]
                                                  / alpha_ref)
                    sums["reference_peaks"][t] = (r_taken.rows[hw, m_q]
                                                  / alpha_ref)
                    sums["noiseless_range_power"] += np.abs(clean_col) ** 2
                    sums["noiseless_azimuth_power"] += (
                        np.abs(clean_rows[hw]) ** 2)
                    # noisy = chi S + sigma Z, and each residual
                    # chi S - c R + sigma Z, by the module's numerics
                    chi_sq = chi * chi
                    total = chi_sq * clean.power
                    mse = chi_sq * clean.residuals[ks[0]]
                    mse_calibrated = chi_sq * clean.residuals[ks[1]]
                    noisy_rows, noisy_col = clean_rows, clean_col
                    if noisy_point:
                        noisy_rows = sigma * z.rows + clean_rows
                        noisy_col = sigma * z.col + clean_col
                        noise_power = sigma * sigma * z.power
                        total += (2.0 * chi * sigma * (sz + base * rz)
                                  + noise_power)
                        mse += (2.0 * sigma * (
                            chi * sz + (chi * base - 1.0) * rz) + noise_power)
                        mse_calibrated += (2.0 * sigma * (
                            chi * sz + (chi * base - e_chi) * rz)
                            + noise_power)
                    sums["noisy_peaks"][t] = noisy_rows[hw, m_q] / alpha_ref
                    sums["noisy_power_sum"] += ratio * total
                    sums["noisy_mainlobe_power"] += (
                        np.abs(noisy_rows[:, lobe]) ** 2)
                    sums["noisy_range_power"] += np.abs(noisy_col) ** 2
                    sums["noisy_azimuth_power"] += np.abs(noisy_rows[hw]) ** 2
                    sums["mse"][t] = ratio * mse
                    sums["mse_calibrated"][t] = (ratio * mse_calibrated
                                                 / e_chi ** 2)
            # before the next trial's
            del channel, reference, act_taken, act_grid

    mode = "data_aided" if srs is None else "pilot_only"
    return [EnsembleResult(
                cfg=cfg, filter_spec=spec, stats=stat, mode=mode,
                trials=trials, r_bar_ref_m=r_bar_ref, peak_bin=(k_q, m_q),
                alpha_ref=alpha_ref,
                **{name: value / trials if name in _MEANS else value
                   for name, value in sums.items()})
            for (cfg, spec), stat, (sums, *_) in zip(points, stats, tasks)]


def run_point_ensemble(scene: Scene, cfg: RadarConfig,
                       constellation: Constellation, filter_spec: FilterSpec,
                       trials: int, seed: int,
                       srs: Optional[SrsConfig] = None,
                       rcmc_method: str = "windowed_sinc",
                       ka_mode: str = "reference") -> EnsembleResult:
    """Run `trials` independent symbol/noise draws through the full chain:
    the one-point case of run_sweep_ensemble."""
    return run_sweep_ensemble(scene, [(cfg, filter_spec)], constellation,
                              trials, seed, srs, rcmc_method, ka_mode)[0]


def pilot_comb_mask(cfg_decimated: RadarConfig, srs: SrsConfig) -> np.ndarray:
    """Comb activity mask on the pilot-rate grid: every retained symbol is a
    pilot symbol, so only the subcarrier comb pattern remains."""
    srs.check_fits(cfg_decimated.n_subcarriers)
    comb = np.zeros((cfg_decimated.n_subcarriers, cfg_decimated.n_symbols),
                    dtype=bool)
    comb[srs.tone_indices(), :] = True
    return comb


def filtered_trial_zero(scene: Scene, cfg: RadarConfig,
                        constellation: Constellation, spec: FilterSpec,
                        seed: int, srs: Optional[SrsConfig] = None
                        ) -> np.ndarray:
    """Trial 0 of run_sweep_ensemble's draws on the seed after the filter,
    bit for bit apply_tf_filter(synthesize_echo(scene, cfg, symbols, seed),
    symbols, spec) with symbols = gen_symbol_grid(cfg, constellation, seed,
    mask), mask being srs's comb, in the same operand order, but built in
    one grid: the channel is built before any other grid exists, and one
    scratch grid then takes the symbols, the scaled noise and the gains in
    turn.  The gains are gathered from filter_gains over
    constellation.table, which equals filter_gains on the symbol grid bit
    for bit."""
    n, m = cfg.n_subcarriers, cfg.n_symbols
    indices = gen_symbol_indices(
        cfg, constellation, seed,
        mask=None if srs is None else pilot_comb_mask(cfg, srs))
    amplitudes = scene.draw_amplitudes(_philox(seed, RCS_STREAM))
    grid = build_channel_matrix(scene, cfg, amplitudes)
    scratch = _gather(constellation.table, indices,
                      np.empty((n, m), dtype=complex))
    grid *= scratch  # channel * symbols
    noise = draw_noise(cfg, seed, unit=True,
                       out=scratch.view(float).reshape(n, m, 2))
    grid += np.multiply(np.sqrt(cfg.noise_var / 2.0), noise, out=noise)
    _gather(filter_gains(constellation.table, spec), indices, scratch)
    return np.multiply(scratch, grid, out=grid)  # gains * echo


def _mainlobe_widths(range_cut: np.ndarray, azimuth_cut: np.ndarray,
                     peak_bin: tuple[int, int]) -> list[float]:
    """The -3 dB widths, in bins, of a noiseless image's range and azimuth
    magnitude cuts through peak_bin; a failure names its axis."""
    widths = []
    for axis, cut, peak in zip(("range", "azimuth"), (range_cut, azimuth_cut),
                               peak_bin):
        try:
            widths.append(measure_mainlobe_width(cut, peak_bin=peak))
        except MeasurementError as exc:
            raise MeasurementError(f"{exc} on the {axis} axis") from None
    return widths


def point_target_report(result: EnsembleResult) -> MetricsReport:
    """Assemble the standard quality report from ensemble reductions.

    The reported islr_db counts MAINLOBE_HALFWIDTH_BINS bins on each side
    of the peak as mainlobe, and the reported pel is against the ideal
    peak sqrt(NM).  The identity residual, reported for every scene, takes
    its ISLR and PEL against the reference image instead, as NMSE does,
    with the peak pixel as the mainlobe and the shared noisy-peak
    normalization: the energy of image - reference off the peak over the
    peak's, and the peak's loss against the reference's peak.  Where the
    reference is one pixel of height sqrt(NM) (an on-bin target of a
    critical grid) they are the single-bin ISLR and the PEL, and for any
    reference the decomposition is exact up to the ensemble's noise at
    the peak, so the residual stays small wherever the target focuses.  A
    peak within MAINLOBE_HALFWIDTH_BINS of an image edge has no mainlobe
    inside the image and is a MeasurementError, and so is a noiseless cut
    whose -3 dB width cannot be measured, which names its axis.
    """
    cfg = result.cfg
    rho_r, rho_a = theoretical_resolutions(cfg, result.r_bar_ref_m)
    k_q, m_q = result.peak_bin
    hw = MAINLOBE_HALFWIDTH_BINS
    shape = (cfg.n_subcarriers, cfg.n_symbols)
    if not (hw <= k_q < shape[0] - hw and hw <= m_q < shape[1] - hw):
        raise MeasurementError(
            f"mainlobe region around {result.peak_bin} with halfwidth {hw} "
            f"exceeds the {shape} image")
    width_r, width_a = _mainlobe_widths(
        np.sqrt(result.noiseless_range_power),
        np.sqrt(result.noiseless_azimuth_power), result.peak_bin)
    sigma_alpha = abs(result.alpha_ref) ** 2
    noise_var = cfg.noise_var

    peak_sq = result.peak_sq_mean
    lobe = result.noisy_mainlobe_power
    islr_report = islr(result.noisy_power_sum, lobe)
    pel_value = pel(result.noiseless_peaks, cfg)
    snr_value = snr_out(peak_sq, result.stats, sigma_alpha, noise_var)
    if noise_var > 0 and not 0 < snr_value < math.inf:
        raise MeasurementError(
            f"output SNR {snr_value} at noise variance {noise_var} is outside "
            f"the float64 range")
    nmse_value = result.nmse
    # |image - reference|^2 is its peak pixel's plus the rest, so the
    # identity's ISLR is NMSE less the peak's share
    peak_error, peak_loss = (
        float(np.mean(np.abs(peaks - result.reference_peaks) ** 2))
        for peaks in (result.noisy_peaks, result.noiseless_peaks))
    residual = identity_residual(nmse_value - peak_error / peak_sq,
                                 peak_loss, peak_sq, snr_value, nmse_value)

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
