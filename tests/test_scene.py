import numpy as np
import pytest

from ofdmsar.errors import InvalidParameterError, PgmParseError, SceneError
from ofdmsar.geometry import PlatformGeometry
from ofdmsar.pgm import write_pgm
from ofdmsar.scene import (PointTarget, Scene, load_scene_pgm,
                           make_point_scene, pixel_to_ground)

PLATFORM = PlatformGeometry(height_m=1000.0, speed_mps=50.0)


def test_point_target_validation():
    with pytest.raises(SceneError):
        PointTarget(0.0, 0.0, rcs_var=0.0)
    with pytest.raises(SceneError):
        PointTarget(0.0, 0.0, rcs_var=float("nan"))
    with pytest.raises(SceneError):
        PointTarget(0.0, 0.0, amplitude_mode="rayleigh")
    t = PointTarget(300.0, 100.0, rcs_var=2.0)
    assert t.mean_range_m(PLATFORM) == pytest.approx(np.hypot(300, 1000))


def test_make_point_scene_accepts_mixed_specs():
    scene = make_point_scene([
        PointTarget(1.0, 2.0),
        PointTarget(3.0, 4.0, 0.5),
        PointTarget(5.0, 6.0, rcs_var=2.0, amplitude_mode="random"),
    ])
    assert scene.q == 3
    assert scene.targets[1].rcs_var == 0.5
    assert scene.targets[2].amplitude_mode == "random"
    assert sum(t.rcs_var for t in scene.targets) == pytest.approx(3.5)
    x_min, x_max, y_min, y_max = scene.extent
    assert x_min <= 1.0 and x_max >= 5.0 and y_min <= 2.0 and y_max >= 6.0


def test_make_point_scene_rejects_bad_specs():
    # a given extent must hold every target (the JSON spelling of a target,
    # its aliases and missing fields, is the CLI's: see test_cli)
    with pytest.raises(SceneError, match="outside extent"):
        make_point_scene([PointTarget(1.0, 2.0)], extent=(2.0, 3.0, 0.0, 4.0))
    scene = make_point_scene([PointTarget(1.0, 2.0)], extent=(0, 3, 0, 4))
    assert scene.extent == (0.0, 3.0, 0.0, 4.0)


def test_scene_extent_validation():
    with pytest.raises(SceneError):
        Scene(targets=(PointTarget(10.0, 0.0),), extent=(0.0, 5.0, -1.0, 1.0))
    with pytest.raises(SceneError):
        Scene(targets=(), extent=(1.0, 0.0, 0.0, 0.0))


def test_draw_amplitudes_deterministic():
    scene = make_point_scene([PointTarget(0.0, 0.0, 4.0),
                              PointTarget(1.0, 1.0, 9.0)])
    amps = scene.draw_amplitudes(None, n_trials=3)
    assert amps.shape == (3, 2)
    assert np.allclose(amps[:, 0], 2.0)
    assert np.allclose(amps[:, 1], 3.0)


def test_draw_amplitudes_random_statistics():
    scene = make_point_scene([PointTarget(0.0, 0.0, rcs_var=2.0,
                                          amplitude_mode="random")])
    rng = np.random.default_rng(0)
    amps = scene.draw_amplitudes(rng, n_trials=200_000)[:, 0]
    assert np.mean(np.abs(amps) ** 2) == pytest.approx(2.0, rel=0.02)
    assert abs(np.mean(amps)) < 0.02
    # real and imaginary parts each carry half the power
    assert np.var(amps.real) == pytest.approx(1.0, rel=0.02)
    with pytest.raises(InvalidParameterError):
        scene.draw_amplitudes(None)


def test_pixel_ground_round_trip():
    shape = (8, 16)
    extent = (290.0, 310.0, -5.0, 5.0)
    rows, cols = np.meshgrid(np.arange(8), np.arange(16), indexing="ij")
    x, y = pixel_to_ground(rows, cols, shape, extent)
    # pixel centres are half a pixel pitch from the extent's near edges
    assert np.allclose(x, 290.0 + (rows + 0.5) * 20.0 / 8)
    assert np.allclose(y, -5.0 + (cols + 0.5) * 10.0 / 16)
    # pixel centers sit strictly inside the extent
    assert x.min() > extent[0] and x.max() < extent[1]
    assert y.min() > extent[2] and y.max() < extent[3]


def test_load_scene_pgm():
    pixels = np.zeros((4, 4), dtype=np.uint8)
    pixels[1, 2] = 255
    pixels[3, 0] = 51  # amplitude 0.2
    data = write_pgm(pixels)
    extent = (0.0, 4.0, 0.0, 4.0)
    scene = load_scene_pgm(data, extent)
    assert scene.q == 2
    by_amp = sorted(scene.targets, key=lambda t: t.rcs_var)
    assert by_amp[1].rcs_var == pytest.approx(1.0)
    assert by_amp[0].rcs_var == pytest.approx(0.04)
    assert (by_amp[1].x_m, by_amp[1].y_m) == (1.5, 2.5)
    assert (by_amp[0].x_m, by_amp[0].y_m) == (3.5, 0.5)
    # thresholding removes the faint pixel
    assert load_scene_pgm(data, extent, threshold=100).q == 1


def test_load_scene_pgm_validation():
    data16 = b"P5\n2 2\n65535\n" + bytes(8)
    with pytest.raises(PgmParseError):
        load_scene_pgm(data16, (0, 1, 0, 1))
    data8 = write_pgm(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(InvalidParameterError):
        load_scene_pgm(data8, (0, 1, 0, 1), threshold=300)
    with pytest.raises(InvalidParameterError):
        load_scene_pgm(data8, (0, 1, 0, 1), rcs_scale=0.0)
