"""Acceptance gate: one test per numbered criterion, at pinned tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test prints the measured numbers it judged, so the
evidence is visible with ``-s`` (or in the captured output on failure).

Two sub-checks contradict the physics the simulator implements and are
kept as strict xfails; their docstrings and reasons carry the analysis:

* criterion 3's high-SNR window between the Wiener and reciprocal filters
  (the Wiener taps keep a small shrinkage bias the window does not admit);
* criterion 4's azimuth -3 dB width against v/(2 Ka Ta) (the Doppler
  history of a scatterer spans Ka*Ta of bandwidth, so the achievable
  width is v/(Ka Ta) -- a factor of exactly two).
"""

import json
import math
import time

import numpy as np
import pytest

from scenes import (critical_config, noise_trials, single_target_scene,
                    symbol_trials, target_at_bins)
from ofdmsar import (FilterSpec, PlatformGeometry, PointTarget, RadarConfig,
                     Scene, SrsConfig, analytic_point_metrics,
                     azimuth_compress, azimuth_fft, build_channel_matrix,
                     channel_mse_analytic, chi_stats, doppler_support,
                     envelope_to_phase_rate_ratio, filter_gains,
                     focus_image, gen_symbol_grid,
                     ls_reconstruct,
                     make_point_scene, make_qam, measure_mainlobe_width,
                     nr_config, pedestal_level, point_target_report,
                     range_compress, rcmc, rd_vs_ls_compare,
                     run_point_ensemble, spa_spectrum, stage_grids,
                     synthesize_echo, theoretical_resolutions)
from ofdmsar.cli import parse_config, run_scenario
from ofdmsar.rd_imaging import _doppler_bins
from ofdmsar.waveform import SPEED_OF_LIGHT as c

SINC_3DB = 0.8858929  # -3 dB width of sinc^2, in units of the null spacing

QAM256 = make_qam(256)


def spec_for(kind, snr_linear):
    if kind == "wf":
        return FilterSpec(kind="wf", snr_in_linear=snr_linear)
    return FilterSpec(kind=kind)


# Criterion 1 ------------------------------------------------------------------

def test_criterion_01_point_metric_identity():
    """ISLR + PEL/E[R^2] + 1/SNR_out reproduces NMSE for every filter/SNR."""
    cfg = critical_config(64, 64, k_ref=16)
    scene = single_target_scene(cfg, 16, 32)
    t0 = time.monotonic()
    worst = 0.0
    for snr_db in (-20.0, 5.0, 20.0):
        snr = 10.0 ** (snr_db / 10.0)
        cfg_n = cfg.with_noise(1.0 / snr, snr_in_linear=snr)
        for kind in ("rf", "mf", "wf"):
            res = run_point_ensemble(scene, cfg_n, QAM256,
                                     spec_for(kind, snr), trials=300,
                                     seed=101)
            rep = point_target_report(res)
            print(f"ACCEPTANCE 1: snr={snr_db:+.0f} dB {kind} "
                  f"residual={rep.identity_residual:.5f}")
            worst = max(worst, rep.identity_residual)
            assert rep.identity_residual < 0.05
    wall = time.monotonic() - t0
    print(f"ACCEPTANCE 1: worst residual {worst:.5f}, wall {wall:.1f} s")
    assert wall < 120.0


# Criterion 2 ------------------------------------------------------------------

def test_criterion_02_channel_mse_closed_form():
    """Empirical ||filtered - H||^2 matches the closed form within 3%."""
    snr = 10.0 ** 0.5
    noise_var = QAM256.mean_power / snr
    cfg = critical_config(64, 64, k_ref=16).with_noise(noise_var,
                                                       snr_in_linear=snr)
    scene = single_target_scene(cfg, 16, 32)
    h = build_channel_matrix(scene, cfg)
    grids = symbol_trials(cfg, QAM256, 11, 500)
    noise = noise_trials(cfg, 11, 500)
    for kind in ("rf", "mf", "wf"):
        spec = spec_for(kind, snr)
        gains = filter_gains(grids, spec)
        emp = float(np.mean(np.sum(
            np.abs((h * grids + noise) * gains - h) ** 2, axis=(1, 2))))
        ana = channel_mse_analytic(cfg, chi_stats(QAM256, spec), 1.0,
                                   noise_var)
        rel = abs(emp - ana) / ana
        print(f"ACCEPTANCE 2: {kind} empirical={emp:.5e} "
              f"analytic={ana:.5e} rel={rel:.4f}")
        assert rel < 0.03


# Criterion 3 ------------------------------------------------------------------

def _calibrated_nmse_sweep():
    cfg = critical_config(64, 64, k_ref=16)
    rows = {}
    for snr_db in range(-20, 31, 5):
        snr = 10.0 ** (snr_db / 10.0)
        rows[snr_db] = {
            kind: analytic_point_metrics(
                cfg, chi_stats(QAM256, spec_for(kind, snr)), 1.0,
                1.0 / snr)["nmse_calibrated"]
            for kind in ("rf", "mf", "wf")}
    return rows


def test_criterion_03_wiener_never_worse():
    """Calibrated NMSE: WF <= min(RF, MF) everywhere; WF ~ MF at low SNR."""
    for snr_db, vals in _calibrated_nmse_sweep().items():
        ratio_mf = vals["wf"] / vals["mf"]
        print(f"ACCEPTANCE 3: snr={snr_db:+d} dB rf={vals['rf']:.4e} "
              f"mf={vals['mf']:.4e} wf={vals['wf']:.4e} "
              f"wf/mf={ratio_mf:.4f}")
        assert vals["wf"] <= min(vals["rf"], vals["mf"]) * (1 + 1e-12)
        if snr_db <= -5:
            assert 0.95 <= ratio_mf <= 1.05


@pytest.mark.xfail(strict=True, reason=(
    "the Wiener taps shrink every noisy cell slightly even at high SNR, so "
    "the calibrated NMSE stays ~9% below the reciprocal filter's instead of "
    "entering the 5% agreement window; measured wf/rf = 0.914 at 25 dB"))
def test_criterion_03_wiener_matches_reciprocal_at_high_snr():
    """WF/RF inside [0.95, 1.05] at SNR_in >= 25 dB (genuinely violated)."""
    rows = _calibrated_nmse_sweep()
    for snr_db in (25, 30):
        ratio = rows[snr_db]["wf"] / rows[snr_db]["rf"]
        print(f"ACCEPTANCE 3x: snr={snr_db:+d} dB wf/rf={ratio:.4f}")
        assert 0.95 <= ratio <= 1.05


# Criterion 4 ------------------------------------------------------------------

def _resolution_config():
    m_count = 1024
    t_sym = 2.0 / m_count
    return RadarConfig(fc_hz=3.5e9, bandwidth_hz=2e8,
                       subcarrier_spacing_hz=30e3,
                       cp_duration_s=t_sym - 1.0 / 30e3,
                       aperture_time_s=2.0, n_subcarriers=512,
                       platform=PlatformGeometry(height_m=1000.0,
                                                 speed_mps=50.0))


def _centered_profiles():
    cfg = _resolution_config()
    y_mid = (cfg.n_symbols // 2) * cfg.platform.speed_mps * cfg.total_symbol_s
    target = PointTarget(x_m=300.0, y_m=y_mid)
    scene = Scene(targets=(target,),
                  extent=(200.0, 400.0, y_mid - 100.0, y_mid + 100.0))
    r_bar = target.mean_range_m(cfg.platform)
    image = np.abs(focus_image(build_channel_matrix(scene, cfg), cfg,
                               r_bar_ref_m=r_bar))
    k_pk, m_pk = np.unravel_index(np.argmax(image), image.shape)
    rho_r, rho_a = theoretical_resolutions(cfg, r_bar)
    meas_r = (measure_mainlobe_width(image[:, m_pk], peak_bin=k_pk)
              * cfg.range_pitch_m / SINC_3DB)
    meas_a = (measure_mainlobe_width(image[k_pk, :], peak_bin=m_pk)
              * cfg.azimuth_pitch_m / SINC_3DB)
    return meas_r / rho_r, meas_a / rho_a


def test_criterion_04_range_width_and_doppler_bandwidth():
    """Range -3 dB width within 10% of c/(2 N df); two-sided Doppler
    bandwidth of the aperture-edge scatterer within 5% of 224 Hz."""
    ratio_r, _ = _centered_profiles()
    print(f"ACCEPTANCE 4: range width / theoretical = {ratio_r:.4f}")
    assert 0.9 <= ratio_r <= 1.1

    cfg = _resolution_config()
    target = PointTarget(x_m=300.0, y_m=100.0)
    scene = Scene(targets=(target,), extent=(200.0, 400.0, 0.0, 200.0))
    r_bar = target.mean_range_m(cfg.platform)
    rd = {stage: grid.copy() for stage, grid in stage_grids(
        build_channel_matrix(scene, cfg), cfg, r_bar)}["rd"]
    k_q = round(r_bar / cfg.range_pitch_m) % cfg.n_subcarriers
    support = doppler_support(np.abs(rd[k_q, :]) ** 2,
                              _doppler_bins(cfg) * cfg.doppler_pitch_hz)
    print(f"ACCEPTANCE 4: two-sided Doppler bandwidth "
          f"{support.two_sided_hz:.1f} Hz (target 224 +- 5%)")
    assert 224.0 * 0.95 <= support.two_sided_hz <= 224.0 * 1.05


@pytest.mark.xfail(strict=True, reason=(
    "a scatterer's Doppler history spans Ka*Ta of bandwidth, so the "
    "achievable azimuth -3 dB width is v/(Ka Ta), exactly twice the "
    "v/(2 Ka Ta) figure this check demands; measured ratio 2.00"))
def test_criterion_04_azimuth_width():
    """Azimuth -3 dB width within 10% of v/(2 Ka Ta) (genuinely violated)."""
    _, ratio_a = _centered_profiles()
    print(f"ACCEPTANCE 4x: azimuth width / v/(2 Ka Ta) = {ratio_a:.4f}")
    assert 0.9 <= ratio_a <= 1.1


# Criterion 5 ------------------------------------------------------------------

def test_criterion_05_pilot_replicas_and_data_aided_gain():
    """Sparse-pilot imaging shows the comb/periodicity replicas where the
    sampling theory puts them, and data-aided processing beats a 20-slot
    pilot-only reconstruction by >= 100x in NMSE."""
    platform = PlatformGeometry(height_m=1000.0, speed_mps=50.0)
    cfg = nr_config(platform, n_subcarriers=256, aperture_time_s=2.0)
    srs20 = SrsConfig(periodicity_slots=20, symbols_per_slot=14,
                      comb_spacing=4, n_resource_blocks=4,
                      start_subcarrier=33)
    k_q = 53
    r_bar = k_q * cfg.range_pitch_m
    x = math.sqrt(r_bar ** 2 - platform.height_m ** 2)
    t_pilot = srs20.period_symbols * cfg.total_symbol_s
    y = k_q * platform.speed_mps * t_pilot
    scene = Scene(targets=(PointTarget(x_m=x, y_m=y),),
                  extent=(x - 100, x + 100, y - 100, y + 100))
    qpsk = make_qam(4)

    res = run_point_ensemble(scene, cfg.decimated(srs20.period_symbols), qpsk,
                             FilterSpec(kind="mf"), trials=1, seed=9,
                             srs=srs20)
    assert res.peak_bin[0] == k_q

    # comb spacing 4 aliases range into N/4 = 64-bin replicas ~ 1250 m apart
    range_profile = res.noiseless_range_power
    top4 = np.sort(np.argsort(range_profile)[::-1][:4])
    spacing_m = (cfg.n_subcarriers // srs20.comb_spacing) * cfg.range_pitch_m
    print(f"ACCEPTANCE 5: range replicas at bins {top4.tolist()}, "
          f"spacing {spacing_m:.2f} m")
    assert top4.tolist() == [53, 117, 181, 245]
    assert abs(spacing_m - 1250.0) <= cfg.range_pitch_m

    # slot periodicity aliases Doppler at the pilot PRF ~ 85.7 Hz; the
    # replica offset on the azimuth grid can exceed half the grid, so both
    # unfoldings of the circular offset are admitted
    az_profile = res.noiseless_azimuth_power
    m_p = az_profile.size
    main = int(np.argmax(az_profile))
    dist = np.abs((np.arange(m_p) - main + m_p // 2) % m_p - m_p // 2)
    ghost = int(np.argmax(np.where(dist > 10, az_profile, 0.0)))
    k_a = cfg.azimuth_rate_at(r_bar)
    pilot_prf = 1.0 / t_pilot
    pitch_hz = pilot_prf / m_p
    candidates = [off * k_a * t_pilot
                  for off in (dist[ghost], m_p - dist[ghost])]
    gap_hz = min(abs(f - pilot_prf) for f in candidates)
    print(f"ACCEPTANCE 5: azimuth replica offset {int(dist[ghost])} bins, "
          f"candidates {[f'{f:.2f}' for f in candidates]} Hz vs PRF "
          f"{pilot_prf:.2f} Hz (bin pitch {pitch_hz:.3f} Hz)")
    assert abs(pilot_prf - 85.714) < 0.01
    assert gap_hz <= pitch_hz

    # dense pilots (2-slot periodicity): no replica above -20 dB
    srs2 = SrsConfig(periodicity_slots=2, symbols_per_slot=14,
                     comb_spacing=4, n_resource_blocks=4, start_subcarrier=33)
    res2 = run_point_ensemble(scene, cfg.decimated(srs2.period_symbols), qpsk,
                              FilterSpec(kind="mf"), trials=1, seed=9,
                              srs=srs2)
    assert res2.peak_bin[0] == k_q
    az2 = res2.noiseless_azimuth_power
    m_p2 = az2.size
    main2 = int(np.argmax(az2))
    d2 = np.abs((np.arange(m_p2) - main2 + m_p2 // 2) % m_p2 - m_p2 // 2)
    floor_db = 10.0 * math.log10(az2[d2 > 40].max() / az2[main2])
    print(f"ACCEPTANCE 5: 2-slot azimuth floor {floor_db:.2f} dB")
    assert floor_db < -20.0

    # data-aided vs 20-slot pilot-only NMSE at SNR_in = 5 dB
    snr = 10.0 ** 0.5
    cfg_n = cfg.with_noise(1.0 / snr, snr_in_linear=snr)
    pilot = run_point_ensemble(scene, cfg_n.decimated(srs20.period_symbols),
                               qpsk, FilterSpec(kind="mf"), trials=6, seed=5,
                               srs=srs20)
    data = run_point_ensemble(scene, cfg_n.decimated(212), QAM256,
                              FilterSpec(kind="mf"), trials=6, seed=5)
    ratio = pilot.nmse / data.nmse
    print(f"ACCEPTANCE 5: pilot nmse={pilot.nmse:.4e} "
          f"data nmse={data.nmse:.4e} ratio={ratio:.1f}")
    assert ratio >= 100.0


# Criterion 6 ------------------------------------------------------------------

def test_criterion_06_oracle_matches_chain():
    """Noiseless on-grid chain amplitudes match least squares within 5%,
    and least squares recovers unit amplitudes to numerical precision."""
    cfg = critical_config(32, 32, k_ref=16)
    r1 = rd_vs_ls_compare(single_target_scene(cfg, 16, 16), cfg, QAM256,
                          FilterSpec(kind="rf"), seed=3)
    print(f"ACCEPTANCE 6: Q=1 gap={r1.max_gap:.3e}")
    assert r1.max_gap < 0.05

    scene3 = make_point_scene([target_at_bins(cfg, 16, mb)
                               for mb in (10, 16, 22)])
    r3 = rd_vs_ls_compare(scene3, cfg, QAM256, FilterSpec(kind="rf"), seed=3)
    print(f"ACCEPTANCE 6: Q=3 gap={r3.max_gap:.3e}")
    assert r3.max_gap < 0.05

    symbols = gen_symbol_grid(cfg, QAM256, 5)
    echo = synthesize_echo(scene3, cfg, symbols)
    amps = ls_reconstruct(echo, [(t.x_m, t.y_m) for t in scene3.targets],
                          symbols, cfg)
    err = float(np.max(np.abs(amps - 1.0)))
    print(f"ACCEPTANCE 6: LS recovery error {err:.3e}")
    assert err < 1e-9


# Criterion 7 ------------------------------------------------------------------

def test_criterion_07_stationary_phase_accuracy():
    """SPA magnitude tracks the FFT within 10% over the central 80% of the
    Doppler support for TBP >= 100, the peak bin lands where the phase
    derivative says, and the default geometry satisfies the slow-envelope
    premise by a wide margin."""
    m_count = 1024
    mm = np.arange(m_count)
    envelope = 0.5 - 0.5 * np.cos(2.0 * np.pi * mm / (m_count - 1))
    b = 0.3
    for tbp in (100, 200, 400):
        a = math.pi * tbp / m_count ** 2
        signal = envelope * np.exp(1j * (a * mm ** 2 + b * mm))
        fft = np.fft.fft(signal)
        f_lo = b * m_count / (2.0 * math.pi)
        f_hi = (2.0 * a * m_count + b) * m_count / (2.0 * math.pi)
        span = f_hi - f_lo
        lo = int(math.ceil(f_lo + 0.1 * span))
        hi = int(math.floor(f_hi - 0.1 * span))
        devs = np.array([abs(abs(spa_spectrum(envelope, a, b, m_count, p).value)
                             - abs(fft[p])) / abs(fft[p])
                         for p in range(lo, hi + 1)])
        p_star = round(m_count * (2.0 * a * float(np.argmax(envelope)) + b)
                       / (2.0 * math.pi))
        p_meas = int(np.argmax(np.abs(fft[:m_count // 2])))
        print(f"ACCEPTANCE 7: TBP={tbp} max dev {devs.max():.4f} over bins "
              f"{lo}..{hi}, peak bin {p_meas} vs predicted {p_star}")
        assert devs.max() < 0.10
        assert abs(p_star - p_meas) <= 1

    ratio = envelope_to_phase_rate_ratio(
        nr_config(PlatformGeometry(height_m=1000.0, speed_mps=50.0)),
        300.0, 100.0)
    print(f"ACCEPTANCE 7: phase-rate / envelope-rate ratio {ratio:.1f}")
    assert ratio > 100.0


# Criterion 8 ------------------------------------------------------------------

def _straightness_scenario():
    n, m_count = 128, 1024
    df = 480e3
    t_sym = 1e-3
    rho_r = c / (2 * n * df)
    r_bar = 64 * rho_r
    lam = c / 3.5e9
    speed = math.sqrt(0.9 * lam * r_bar / (2 * t_sym ** 2 * m_count))
    cfg = RadarConfig(fc_hz=3.5e9, bandwidth_hz=2e8,
                      subcarrier_spacing_hz=df,
                      cp_duration_s=t_sym - 1.0 / df,
                      aperture_time_s=m_count * t_sym, n_subcarriers=n,
                      platform=PlatformGeometry(height_m=100.0,
                                                speed_mps=speed))
    x = math.sqrt(r_bar ** 2 - 100.0 ** 2)
    y = (m_count // 2) * speed * t_sym
    scene = Scene(targets=(PointTarget(x_m=x, y_m=y),),
                  extent=(x - 50, x + 50, y - 50, y + 50))
    return cfg, scene, r_bar


def _ridge_track(power, threshold=0.25):
    """Refined range-peak position of every Doppler column carrying energy."""
    n_rows = power.shape[0]
    col_peak = power.max(axis=0)
    keep = np.nonzero(col_peak >= threshold * col_peak.max())[0]
    track = []
    for j in keep:
        k = int(np.argmax(power[:, j]))
        a, b, cc = (power[(k - 1) % n_rows, j], power[k, j],
                    power[(k + 1) % n_rows, j])
        den = a - 2.0 * b + cc
        track.append(k + (0.0 if den == 0 else 0.5 * (a - cc) / den))
    return np.asarray(track)


def _golden_scenario_text():
    n = m_count = 16
    df = 60e3
    t_sym = 0.013
    rho_r = c / (2 * n * df)
    r_bar = 8 * rho_r
    speed = math.sqrt((c / 3.5e9) * r_bar / (2 * t_sym ** 2 * m_count))
    x = math.sqrt(r_bar ** 2 - 500.0 ** 2)
    y = 8 * speed * t_sym
    return json.dumps({
        "radar": {
            "fc_hz": 3.5e9,
            "bandwidth_hz": 2e8,
            "subcarrier_spacing_hz": df,
            "cp_duration_s": t_sym - 1 / df,
            "aperture_time_s": m_count * t_sym,
            "n_subcarriers": n,
            "platform": {"height_m": 500.0, "speed_mps": speed},
        },
        "scene": {
            "targets": [{"x": x, "y": y}],
            "extent": [x - 100, x + 100, y - 100, y + 100],
        },
        "snr_in_db": 5.0,
        "filter": {"kind": "mf"},
        "trials": 3,
        "seed": 7,
        "azimuth_downsample": 1,
        "outputs": {"images": ["rd", "ac"], "grids": ["tf", "ac"]},
    })


def test_criterion_08_chain_invariants(tmp_path):
    """Unitary stages, RCMC straightness, the analytic pedestal level, and
    byte-identical artifacts on repeated runs."""
    cfg, scene, r_bar = _straightness_scenario()

    # every chain stage conserves energy
    rng = np.random.default_rng(17)
    raw = (rng.standard_normal((cfg.n_subcarriers, cfg.n_symbols))
           + 1j * rng.standard_normal((cfg.n_subcarriers, cfg.n_symbols)))
    e0 = float(np.sum(np.abs(raw) ** 2))
    rc = range_compress(raw, cfg)
    rd = azimuth_fft(rc, cfg)
    exact = rcmc(rd, cfg, r_bar, method="phase_ramp")
    ac = azimuth_compress(exact, cfg, r_bar)
    for name, grid in (("rc", rc), ("rd", rd), ("rcmc", exact), ("ac", ac)):
        rel = abs(float(np.sum(np.abs(grid) ** 2)) - e0) / e0
        print(f"ACCEPTANCE 8: |energy drift| after {name} = {rel:.2e}")
        assert rel < 1e-10
    # the windowed sinc is an approximation: on full-band content its
    # kernel rolloff sheds a few percent at the band edges, halving as the
    # kernel doubles; the phase ramp above is the exact, unitary method
    drifts = []
    for halfwidth in (8, 16):
        approx = rcmc(rd, cfg, r_bar, method="windowed_sinc",
                      halfwidth=halfwidth)
        drifts.append(abs(float(np.sum(np.abs(approx) ** 2)) - e0) / e0)
        print(f"ACCEPTANCE 8: windowed-sinc (halfwidth {halfwidth}) "
              f"energy drift {drifts[-1]:.2e}")
    assert drifts[0] < 0.05
    assert drifts[1] < 0.6 * drifts[0]

    # RCMC straightens a ~2-bin migration ridge to < 0.5 bin
    stages = {stage: grid.copy() for stage, grid in stage_grids(
        build_channel_matrix(scene, cfg), cfg, r_bar)}
    before = np.abs(_ridge_track(np.abs(stages["rd"]) ** 2) - 64.0)
    after = np.abs(_ridge_track(np.abs(stages["rcmc"]) ** 2) - 64.0)
    print(f"ACCEPTANCE 8: ridge deviation before {before.max():.3f} bins, "
          f"after {after.max():.3f} bins")
    assert before.max() > 0.5
    assert after.max() < 0.5

    # the off-target noisy-image floor sits at the analytic pedestal
    snr = 10.0 ** 0.5
    cfg_p = critical_config(64, 64, k_ref=16).with_noise(1.0 / snr,
                                                         snr_in_linear=snr)
    spec = FilterSpec(kind="mf")
    res = run_point_ensemble(single_target_scene(cfg_p, 16, 32), cfg_p,
                             QAM256, spec, trials=300, seed=33)
    # the mean power off the peak's row and column
    off_peak = (res.noisy_power_sum - res.noisy_azimuth_power.sum()
                - res.noisy_range_power.sum() + res.noisy_mainlobe_power[1, 1])
    emp = off_peak / ((cfg_p.n_subcarriers - 1) * (cfg_p.n_symbols - 1))
    ana = pedestal_level(chi_stats(QAM256, spec), 1.0, cfg_p.noise_var)
    rel = abs(emp - ana) / ana
    print(f"ACCEPTANCE 8: pedestal empirical={emp:.5f} analytic={ana:.5f} "
          f"rel={rel:.4f}")
    assert rel < 0.05

    # identical scenario runs produce byte-identical artifacts
    text = _golden_scenario_text()
    out_a = run_scenario(parse_config(text), tmp_path / "a")
    out_b = run_scenario(parse_config(text), tmp_path / "b")
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b and names_a
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    print(f"ACCEPTANCE 8: {len(names_a)} artifacts byte-identical "
          f"({', '.join(names_a)})")
