"""Monte-Carlo ensemble runner: symbols -> echo -> filter -> focused image.

run_sweep_ensemble draws every trial: its symbols, its noise and its
random targets' amplitudes.  The only other draw is the CLI's stage path
(cli._filtered_trial_zero), which draws trial 0 again from the same
streams, with the same bits, to render its images.  Over independent
trials of a scene with a deterministic reference target it returns, per
(cfg, filter) point of an SNR/filter sweep, the reductions the quality
metrics need: each trial's peaks and image MSE versus the ideal
response, and the ensemble-mean power that the report reads (the noisy
image's total and its mainlobe around the peak, and the column and row
through the peak of the noisy and the noiseless image).  The points
share one set of draws (common random numbers) and one focusing operator
(rd_imaging.focusing_operator).  The channel and the ideal image are
built once per sweep, or per trial from its amplitudes when the scene
has random targets.  run_point_ensemble is the one-point sweep.

A trial draws its symbols as alphabet indices (waveform.gen_symbol_indices,
one or two bytes per cell, the sentinel index `order` on inactive cells)
and, in a noisy sweep, its unit noise.  Every gain kind is a function of
the symbol alone, so each gain spec has two tables over
constellation.table, its gain g and chi = s * g, both 0 at the sentinel,
built once per sweep with tf_filter.filter_gains; a trial gathers them at
its indices and never forms a complex symbol grid.

The focusing operator F is linear, so each point's images are real
multiples of a few canonical focused grids.  Its noisy image is
clean + sigma * c * F(z * g_ref), with sigma = sqrt(noise_var / 2) and z
the unit noise.  With a constant-modulus alphabet (every |s|^2 = rho, as
QPSK) every gain is a real multiple of conj(s), so g_ref = conj(s) and c
is 1/rho for rf, 1 for mf and 1/(rho + 1/SNR) for wf; otherwise g_ref is
the point's own gain grid and c = 1, so all rf points share one noise
grid, all mf points another, and each wf SNR has its own.  When
chi is the same on every alphabet point (rf always; every filter of a
constant-modulus alphabet) the noiseless image is chi * F(channel * act),
act being the active cells; otherwise it is F(chi * channel), shared by
points with equal gains (mf across SNRs).  Each distinct canonical grid
is focused once per trial, or once per sweep when it does not change
between trials (F(channel * act) of a deterministic scene), and every
point that uses it reads it.  So a constant-modulus sweep focuses one
grid per trial plus one per sweep instead of two per point and trial;
QAM16 rf/mf/wf at two SNRs focuses 7 per trial plus 1 instead of 12.  The
choice follows from the alphabet and the filter specs alone, so a point
run alone reads the same grids by the same formula and its bits do not
depend on the rest of the sweep.

The canonical grids stay in the range-Doppler domain, and every
reduction is taken there.  F(x) = ifft_M(A * Y) with Y the operator's
range_doppler(x) and A its azimuth multiplier, a phase with |A|^2 = N on
every entry.  By Parseval, sum |ifft_M(v)|^2 = sum |v|^2 / M along each
row, so sum |F(x)|^2 = (N / M) sum |Y|^2 and Re <F(x), F(y)> =
(N / M) Re <Y_x, Y_y>: the total power and both MSEs are N / M times sums
over range-Doppler grids, the ideal image entering as its range-Doppler
form R = fft_M(ideal) / A.  The peaks, the azimuth cuts and the mainlobe
read the image rows k_q - 1 .. k_q + 1, three M-point IFFTs of A * Y, and
the range cut reads column m_q, sum_p Y * A e^{2 pi i p m_q / M} / M, with
A and the phase row as two factors of the sum where A has a row per range
bin.  So no trial multiplies a whole grid by A or runs its azimuth IFFT.

Each trial reduces every distinct canonical grid once, and each point
combines those reductions with scalars alone, so a point costs O(N + M)
per trial whatever the grid.  A point's noisy grid is chi S + sigma Z, S
and Z its signal and noise grids, and is never formed:

  total          = chi^2 |S|^2 + 2 chi sigma Re <S, Z> + sigma^2 |Z|^2
  mse            = |chi S - R|^2 + 2 sigma Re <chi S - R, Z> + sigma^2 |Z|^2
  mse_calibrated = the same with E[chi] R for R, over E[chi]^2

The peaks and cuts combine the grids' rows and columns in the operand
order of the image-domain chain, as before.  The numerics follow three
rules.  A residual between correlated grids, |chi S - c R|^2 for c = 1
and c = E[chi], is always a sum of squares of a formed grid,
chi^2 |S - (c / chi) R|^2, never expanded into |S|^2 - 2 Re <S, R> +
|R|^2, which cancels to round-off and goes negative.  Only the
independent noise is split out, and its cross terms are taken against
S - R and R: Re <chi S - c R, Z> = chi Re <S - R, Z> + (chi - c) Re <R, Z>
and Re <S, Z> = Re <S - R, Z> + Re <R, Z>.  A cross term's round-off is
then that of the residual itself, plus |chi - c| |R| |Z| eps, where
taking chi <S, Z> - c <R, Z> would keep eps |R| |Z| whatever the
residual.  And what does not change between trials is reduced once per
sweep, before the draws are allocated: F(channel * act) of a
deterministic scene, with its sums of squares, cuts and residuals.  So a
trial takes, per per-trial signal grid, its cuts, |S|^2 and each
|S - k R|^2, and leaves S - R in its buffer; per noise grid its cuts,
|Z|^2 and Re <R, Z>; and Re <S - R, Z> per (signal, noise) pair that
some point reads.  A QPSK sweep, whose points all read one noise grid,
makes one sum of squares and two inner products per trial at any number
of points.  Every sum is over the grids' float64 views, computed without
BLAS: its threads would compete with the draw worker for the cores.

Trials run one at a time, in one order: a trial takes every distinct
canonical grid into its own buffer, gathering each gain straight into
it, then reduces every grid and every point.  The sweep allocates these
buffers once, one per distinct per-trial canonical grid, plus one
scratch grid for S - k R with k != 1 only where some signal grid is
drawn per trial; a deterministic scene's F(channel * act) is taken in
place in the channel's own grid (in a copy where a per-trial signal grid
reads the channel) and held as S - R next to R.  So a trial allocates no
complex grid.

The trial is the one unit of drawing.  Each trial's indices and, in a
noisy sweep, its unit noise are drawn into a pair of buffers allocated
once, an index grid and a unit-noise grid, and its random targets'
amplitudes are drawn, with its channel and ideal image, just before it is
focused.  A sweep of several trials whose draws exceed _PREFETCH_BYTES,
at the index's itemsize plus 16 bytes of unit noise per cell in a noisy
sweep, draws trial t + 1 on a worker thread while trial t is focused,
into the other of two pairs; the main thread draws only the target
amplitudes, builds the channels, focuses and reduces.  One Philox
generator per stream (symbols, noise, target amplitudes) lives across the
trials, so no result depends on which thread draws.  The index draws, the
gain gathers and the channel build run a row block at a time, so none
makes a temporary of a whole grid.

Memory, in (N, M) complex grids: the operator's multipliers (H, and A
where it has a row per range bin), R, one buffer per distinct canonical
grid that changes between trials, F(channel * act) as S - R where it
does not, the scratch grid where there is one, and one trial's draws (an
index grid and, when noisy, a unit-noise grid), or two trials' when the
worker draws, and with random targets the trial's channel and ideal
image; besides them O(N + M) per point and its per-trial arrays.  The
pilot-only NR sweep of 1024 x 171 cells (QPSK, phase_ramp,
per_range_bin) holds H, A, R, S - R, its one noise grid and one trial's
unit noise: 6.2 grids at its tracemalloc peak.  QAM16 rf/mf/wf at two
SNRs on 128 x 128 cells, 64 trials drawn by the worker, peaks at 15.8
grids, and at 16.8 with a random target.

A mask (the pilot comb) makes the mode "pilot_only", else "data_aided";
run_pilot_ensemble decimates the grid to the pilot period and masks it
to the comb, then runs the identical chain.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

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
                       FilterStats, RadarConfig, SrsConfig, _gather, _philox,
                       chi_stats, gen_symbol_indices)

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
    mse: np.ndarray                  # (T,) sum|noisy - ideal|^2
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


class _Tables(NamedTuple):
    """A gain spec's gain g and chi = s * g at every index of
    constellation.table, both 0 at the sentinel."""

    gain: np.ndarray
    chi: np.ndarray


def _tables(constellation: Constellation, spec: FilterSpec) -> _Tables:
    symbols = constellation.table
    gain = filter_gains(symbols, spec)
    return _Tables(gain, symbols * gain)


def _focus_grids(range_doppler, grids: list, channel: np.ndarray,
                 indices: np.ndarray, noise: Optional[np.ndarray],
                 mask: Optional[np.ndarray]) -> None:
    """Take one trial's canonical grids to the range-Doppler domain in place
    in their buffers, from (part, _Tables or None, buffer) triples:
    ("signal", None) is channel * act, ("signal", spec) is
    chi[indices] * channel and ("noise", spec) is noise * g[indices], each
    table gathered straight into the grid's buffer."""
    for part, tables, out in grids:
        if tables is None:
            x = (channel if mask is None
                 else np.multiply(channel, mask, out=out))
        elif part == "signal":
            x = _gather(tables.chi, indices, out)
            x *= channel
        else:
            _gather(tables.gain, indices, out)
            x = np.multiply(noise, out, out=out)
        range_doppler(x, out=out)


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
    each residual scale k it was asked for.  A signal grid's buffer holds
    S - R afterwards."""

    rows: np.ndarray
    col: np.ndarray
    power: float
    residuals: dict


def run_sweep_ensemble(scene: Scene,
                       points: Sequence[tuple[RadarConfig, FilterSpec]],
                       constellation: Constellation, trials: int, seed: int,
                       mask: Optional[np.ndarray] = None,
                       rcmc_method: str = "windowed_sinc",
                       ka_mode: str = "reference") -> list[EnsembleResult]:
    """One EnsembleResult per (cfg, filter_spec) point, in order.

    The point configs may differ only in noise_var and snr_in_linear; each
    result equals run_point_ensemble on its point alone, whichever thread
    draws the trials."""
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

    # the image's rows k_q - hw .. k_q + hw and its column m_q, read from
    # the range-Doppler form Y of image = ifft_M(A * Y): the rows are
    # M-point IFFTs of A * Y there, and the column is sum_p Y * A * e with
    # e = e^{2 pi i p m_q / M} / M.  With one row of A (reference K_a) the
    # column weighs Y by the one row A * e; with one row per range bin it
    # takes A and e as two factors of the sum, so that no (N, M) weight
    # grid is formed
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

    def take(grid, reference=None, scales=(), diff=None):
        """The _Taken of a range-Doppler grid.  A signal grid S, given R
        and its residual scales, forms each S - k R with k != 1 in `diff`
        from k * R, then leaves S - R in its own buffer."""
        image_rows = np.multiply(grid[rows], azimuth_rows)
        np.fft.ifft(image_rows, axis=-1, out=image_rows)
        col = column(grid)
        power = _inner(grid, grid)
        residuals = {}
        if reference is not None:
            for k in scales:
                if k != 1.0:
                    np.multiply(k, reference, out=diff)
                    np.subtract(grid, diff, out=diff)
                    residuals[k] = _inner(diff, diff)
            grid -= reference
            if 1.0 in scales:
                residuals[1.0] = _inner(grid, grid)
        return _Taken(image_rows, col, power, residuals)

    def truth(amplitudes=None):
        """(channel, R), R = fft_M(ideal) / A being the ideal image's
        range-Doppler form, so image - ideal = ifft_M(A * (Y - R))."""
        channel = build_channel_matrix(scene, cfg0, amplitudes)
        reference = ideal_reference_image(scene, cfg0, amplitudes)
        np.fft.fft(reference, axis=-1, out=reference)
        reference /= azimuth
        return channel, reference

    symbol_rng = _philox(seed, SYMBOL_STREAM)
    noise_rng = (_philox(seed, NOISE_STREAM)
                 if any(cfg.noise_var > 0 for cfg, _ in points) else None)
    # (channel, R): built once for a deterministic scene, per trial from
    # its drawn amplitudes when the scene has random targets
    rcs_rng = (_philox(seed, RCS_STREAM)
               if any(t.amplitude_mode == "random" for t in scene.targets)
               else None)
    fixed = truth() if rcs_rng is None else None
    reads = [_focus_reads(constellation, spec) for _, spec in points]
    # each point's canonical grids as (part, gain spec) keys: its noiseless
    # image's and, if it is noisy, its noise image's
    wants = [(("signal", r.signal),
              ("noise", r.noise) if cfg.noise_var > 0 else None)
             for (cfg, _), r in zip(points, reads)]
    keys = list(dict.fromkeys(key for pair in wants for key in pair if key))
    slot = {key: i for i, key in enumerate(keys)}
    tables = {spec: _tables(constellation, spec)
              for spec in dict.fromkeys(spec for _, spec in keys)
              if spec is not None}

    stats = [chi_stats(constellation, spec) for _, spec in points]
    # per point: its reads resolved to slots and residual scales, and its
    # result's arrays.  chi S - c R = chi (S - k R) with k = c / chi, for
    # c = 1 (mse) and c = E[chi] (mse_calibrated)
    tasks = []
    scales = {}
    for (cfg, _), r, stat, (signal, noise) in zip(points, reads, stats,
                                                   wants):
        sums = dict(noiseless_peaks=np.empty(trials, dtype=complex),
                    noisy_peaks=np.empty(trials, dtype=complex),
                    mse=np.empty(trials), mse_calibrated=np.empty(trials),
                    noisy_power_sum=0.0,
                    noisy_mainlobe_power=np.zeros((2 * hw + 1,) * 2),
                    noisy_range_power=np.zeros(n),
                    noisy_azimuth_power=np.zeros(m),
                    noiseless_range_power=np.zeros(n),
                    noiseless_azimuth_power=np.zeros(m))
        e_chi = stat.chi_mean
        ks = (1.0 / r.chi, e_chi / r.chi)
        scales.setdefault(slot[signal], {}).update(dict.fromkeys(ks))
        tasks.append((sums, r.chi, np.sqrt(cfg.noise_var / 2.0) * r.scale,
                      e_chi, ks, slot[signal],
                      slot[noise] if noise else None))
    # the (signal, noise) pairs the points read, whose Re <S - R, Z> each
    # trial takes, with Re <R, Z> for each noise grid
    pairs = list(dict.fromkeys((signal, noise)
                               for *_, signal, noise in tasks
                               if noise is not None))
    noises = list(dict.fromkeys(noise for _, noise in pairs))

    def empty():
        return np.empty((n, m), dtype=complex)
    # each canonical grid's range-Doppler buffer and reductions:
    # F(channel * act) of a deterministic scene is reduced once per sweep,
    # before any draw, in the channel's own grid unless a per-trial signal
    # grid reads the channel; every other grid is reduced once per trial in
    # a buffer allocated here
    buffers = [None] * len(keys)
    taken = [None] * len(keys)
    once = slot.get(("signal", None)) if fixed is not None else None
    per_trial = [i for i in range(len(keys)) if i != once]
    per_trial_signal = [i for i in per_trial if keys[i][0] == "signal"]

    def scratch(signals):
        """The scratch grid for S - k R, k != 1, where one of these signal
        grids needs it."""
        return (empty() if any(set(scales[i]) - {1.0} for i in signals)
                else None)
    if once is not None:
        channel, reference = fixed
        if per_trial_signal:
            grid = channel.copy()
        else:  # no trial reads the channel
            grid, fixed = channel, (None, reference)
        del channel
        if mask is not None:
            grid *= mask
        focus.range_doppler(grid, out=grid)
        taken[once] = take(grid, reference, scales[once], scratch([once]))
        buffers[once] = grid
    grids = [(keys[i][0], tables.get(keys[i][1]), empty()) for i in per_trial]
    for i, (_, _, out) in zip(per_trial, grids):
        buffers[i] = out
    diff = scratch(per_trial_signal)
    # Parseval's factor from range-Doppler sums of squares to the image's
    ratio = n / m

    # Bytes per cell of one trial's draws: its symbol index and, in a noisy
    # sweep, its unit noise.  Each trial is drawn into a pair of buffers, an
    # index grid and a unit-noise grid.  A sweep whose draws fit the budget,
    # or of one trial, draws each trial on this thread into one pair.  A
    # larger sweep draws trial t + 1 on a worker thread while trial t is
    # focused, into the other of two pairs.  The buffers are allocated here:
    # a draw allocates only a row block of int64 indices at a time, so none
    # lands in the worker's own malloc arena.  The symbol and noise streams
    # keep their draw order, on one thread.  Leaving the with statement,
    # however the sweep ends, joins the worker.  A sweep drawn on this
    # thread starts no thread and does not import concurrent.futures, whose
    # import of logging adds ~13 ms to a fresh process.
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
            channel, reference = (
                fixed if rcs_rng is None
                else truth(scene.draw_amplitudes(rcs_rng)))
            _focus_grids(focus.range_doppler, grids, channel, indices,
                         unit_noise, mask)
            for j, (part, _, out) in zip(per_trial, grids):
                taken[j] = (take(out, reference, scales[j], diff)
                            if part == "signal" else take(out))
            ref_cross = {z: _inner(reference, buffers[z]) for z in noises}
            cross = {(s, z): _inner(buffers[s], buffers[z])
                     for s, z in pairs}
            for sums, chi, sigma, e_chi, ks, signal, noise in tasks:
                clean = taken[signal]
                clean_rows, clean_col = clean.rows, clean.col
                if chi != 1.0:
                    clean_rows = chi * clean_rows
                    clean_col = chi * clean_col
                sums["noiseless_peaks"][t] = clean_rows[hw, m_q] / alpha_ref
                sums["noiseless_range_power"] += np.abs(clean_col) ** 2
                sums["noiseless_azimuth_power"] += np.abs(clean_rows[hw]) ** 2
                # noisy = chi S + sigma Z, and each residual
                # chi S - c R + sigma Z, as sums of squares of formed grids
                # plus the noise's cross terms, taken against S - R and R:
                # chi S - c R = chi (S - R) + (chi - c) R
                chi_sq = chi * chi
                total = chi_sq * clean.power
                mse = chi_sq * clean.residuals[ks[0]]
                mse_calibrated = chi_sq * clean.residuals[ks[1]]
                noisy_rows, noisy_col = clean_rows, clean_col
                if noise is not None:
                    z = taken[noise]
                    noisy_rows = sigma * z.rows + clean_rows
                    noisy_col = sigma * z.col + clean_col
                    sz, rz = cross[signal, noise], ref_cross[noise]
                    noise_power = sigma * sigma * z.power
                    total += 2.0 * chi * sigma * (sz + rz) + noise_power
                    mse += (2.0 * sigma * (chi * sz + (chi - 1.0) * rz)
                            + noise_power)
                    mse_calibrated += (
                        2.0 * sigma * (chi * sz + (chi - e_chi) * rz)
                        + noise_power)
                sums["noisy_peaks"][t] = noisy_rows[hw, m_q] / alpha_ref
                sums["noisy_power_sum"] += ratio * total
                sums["noisy_mainlobe_power"] += (
                    np.abs(noisy_rows[:, lobe]) ** 2)
                sums["noisy_range_power"] += np.abs(noisy_col) ** 2
                sums["noisy_azimuth_power"] += np.abs(noisy_rows[hw]) ** 2
                sums["mse"][t] = ratio * mse
                sums["mse_calibrated"][t] = ratio * mse_calibrated / e_chi ** 2
            del channel, reference  # free a trial's truth before the next's

    mode = "data_aided" if mask is None else "pilot_only"
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
                       mask: Optional[np.ndarray] = None,
                       rcmc_method: str = "windowed_sinc",
                       ka_mode: str = "reference") -> EnsembleResult:
    """Run `trials` independent symbol/noise draws through the full chain:
    the one-point case of run_sweep_ensemble."""
    return run_sweep_ensemble(scene, [(cfg, filter_spec)], constellation,
                              trials, seed, mask, rcmc_method, ka_mode)[0]


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
    one on-grid target only.  A peak within MAINLOBE_HALFWIDTH_BINS of an
    image edge has no mainlobe inside the image and is a MeasurementError.
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
    width_r = measure_mainlobe_width(np.sqrt(result.noiseless_range_power),
                                     peak_bin=k_q)
    width_a = measure_mainlobe_width(np.sqrt(result.noiseless_azimuth_power),
                                     peak_bin=m_q)
    sigma_alpha = abs(result.alpha_ref) ** 2
    noise_var = cfg.noise_var

    peak_sq = result.peak_sq_mean
    lobe = result.noisy_mainlobe_power
    islr_report = islr(result.noisy_power_sum, lobe)
    islr_single = islr(result.noisy_power_sum, lobe[hw, hw])
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
