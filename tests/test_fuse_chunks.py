"""A run made in chunks of IMU steps: the chunks against one pass, and the
streamed ``fuse`` outputs."""

import tracemalloc

import numpy as np
import pytest
from oracles import (
    reference_errors_text,
    reference_estimates_text,
    reference_track_text,
    reference_truth_at,
)

from navfuse import cli, fusion
from navfuse.cli import main, write_gnss_csv, write_imu_csv, write_truth_csv
from navfuse.errors import DecompositionFailure, InvalidCovariance, SingularInnovationCov
from navfuse.evaluate import align_and_diff, write_run
from navfuse.fusion import FusionConfig, fuse_chunks, run_fusion, run_gnss_only
from navfuse.geodesy import enu_to_geodetic
from navfuse.gnss import GnssStream
from navfuse.simulate import (
    SCENARIO_ORIGIN,
    SensorCorruption,
    TrajectoryProfile,
    corrupt,
    generate_truth,
)
from navfuse.strapdown import ImuStream

# IMU steps a fix is anchored to.  With chunks of 7 steps, 7 is the first
# step of a chunk and 13 its last; with 256, 255 is a last step and 256 a
# first.  Step 13 takes two fixes, and step 140 an outlier 500 m east.
ANCHORS = [0, 7, 13, 13, 55, 140, 255, 256, 299]
OUTLIER = 5
# Receiver sigmas on some fixes; the others take the filter's default.
OWN_SIGMAS = {1: 3.0, 7: 2.5}


@pytest.fixture(scope="module")
def drive():
    """A 3 s circular drive (300 IMU samples) and its truth, with fixes at
    :data:`ANCHORS`, one before the first IMU sample and one after the
    last, which anchors to the last step."""
    truth, ideal = generate_truth(TrajectoryProfile("circular", duration=3.0))
    imu, _ = corrupt(truth, ideal, SensorCorruption(seed=9), gnss_rate=1.0)
    steps = [0, *ANCHORS, len(imu) - 1]
    t = imu.t[steps].copy()
    t[0] -= 0.5
    t[-1] += 0.5
    t[4] += 0.004  # still step 13
    positions = truth.position[steps] + np.random.default_rng(3).normal(0.0, 2.0, (len(steps), 3))
    positions[1 + OUTLIER, 0] += 500.0
    std = np.full(len(steps), np.nan)
    for k, sigma in OWN_SIGMAS.items():
        std[1 + k] = sigma
    gnss = GnssStream(t, *enu_to_geodetic(positions, SCENARIO_ORIGIN), std)
    return imu, gnss, truth


def chunks_at(monkeypatch, size, imu, gnss, cfg):
    monkeypatch.setattr(fusion, "CHUNK_STEPS", size)
    return list(fuse_chunks(imu, gnss, cfg))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_run(chunks, whole):
    """The concatenated ``chunks`` are ``whole``, bit for bit, and every
    chunk holds the run's ``origin`` and ``gnss_track`` objects."""
    for column in ("t", "state", "cov_diag", "diverged", "updates"):
        joined = np.concatenate([getattr(c, column) for c in chunks])
        assert same_bits(joined, getattr(whole, column)), column
    for part, ours in zip(whole.gnss_track, chunks[0].gnss_track):
        assert same_bits(ours, part)
    assert all(c.gnss_track is chunks[0].gnss_track for c in chunks)
    assert all(c.origin is chunks[0].origin for c in chunks)
    assert chunks[0].origin == whole.origin


@pytest.mark.parametrize("gate", [None, 3.0])
def test_chunks_equal_one_pass(monkeypatch, drive, gate):
    imu, gnss, _ = drive
    cfg = FusionConfig(gnss_gate=gate)
    n = len(imu)
    (whole,) = chunks_at(monkeypatch, n + 1, imu, gnss, cfg)
    assert whole.updates.dtype == fusion.UPDATE_DTYPE
    assert whole.updates["imu_index"].tolist() == [*ANCHORS, n - 1]
    assert whole.updates["accepted"][OUTLIER] == (gate is None)
    assert len(whole.gnss_track[0]) == len(gnss)
    for size in (1, 7, 256):
        chunks = chunks_at(monkeypatch, size, imu, gnss, cfg)
        lengths = [len(c.t) for c in chunks]
        assert lengths[:-1] == [size] * (len(chunks) - 1) and 0 < lengths[-1] <= size
        assert sum(lengths) == n
        assert_same_run(chunks, whole)
        assert_same_run([run_fusion(imu, gnss, cfg)], whole)
        # A chunk holds the updates of its own steps.
        for k, c in enumerate(chunks):
            steps = c.updates["imu_index"]
            assert np.all((k * size <= steps) & (steps < k * size + len(c.t)))


def test_fix_column_holds_the_last_update_attempted_at_a_step(monkeypatch, drive):
    # A second fix after the last IMU sample, at the outlier's position:
    # the gate rejects it, and it is recorded after the first at the last
    # step.  Each update row holds its fix in the local frame.
    imu, gnss, _ = drive
    late = np.append(np.arange(len(gnss)), OUTLIER + 1)
    columns = [getattr(gnss, name)[late] for name in ("t", "lat", "lon", "alt", "std")]
    columns[0][-1] = gnss.t[-1] + 0.2
    gnss = GnssStream(*columns)
    cfg = FusionConfig(gnss_gate=3.0)
    n = len(imu)
    # Each fix's step, from the drive's construction: the first fix
    # precedes every sample, and the last two follow the last one.
    steps = [None, *ANCHORS, n - 1, n - 1]
    enu = run_gnss_only(gnss, fusion.frame_origin(gnss))[1]
    for size in (1, 7, n + 1):
        chunks = chunks_at(monkeypatch, size, imu, gnss, cfg)
        updates = np.concatenate([c.updates for c in chunks])
        assert updates["imu_index"].tolist() == steps[1:]
        assert not updates["accepted"][OUTLIER] and not updates["accepted"][-1]
        assert same_bits(updates["fix"], enu[1:])


def overflowing(imu, sample):
    accel = imu.accel.copy()
    accel[sample, 0] = 1e300
    return ImuStream(imu.t, imu.gyro, accel)


def test_overflow_in_a_later_chunk_names_the_sample(monkeypatch, drive):
    imu, gnss, _ = drive
    imu = overflowing(imu, 280)
    messages = []
    for size in (len(imu) + 1, 1, 7, 256):
        monkeypatch.setattr(fusion, "CHUNK_STEPS", size)
        chunks = fuse_chunks(imu, gnss, FusionConfig())
        # The chunks before the one holding sample 280 are yielded first.
        for _ in range(280 // size):
            next(chunks)
        with pytest.raises(InvalidCovariance) as excinfo:
            next(chunks)
        messages.append(str(excinfo.value))
    assert messages[0].startswith(f"IMU sample 280 (t = {float(imu.t[280])!r} s): overflow ")
    assert messages == messages[:1] * 4


@pytest.mark.parametrize("error", [DecompositionFailure, SingularInnovationCov, InvalidCovariance])
def test_filter_error_names_the_sample(monkeypatch, tmp_path, capsys, drive, error):
    # An update that fails on the outlier, the fix 500 m off at step 140,
    # raises its own class with the step and its time prefixed, whatever
    # the chunking, and fuse then leaves no output.
    imu, gnss, truth = drive
    kernel = fusion._update

    def failing(state, cov, y, r_cov, gate):
        if np.linalg.norm(y - state[0:3]) > 400.0:
            raise error("injected")
        return kernel(state, cov, y, r_cov, gate)

    monkeypatch.setattr(fusion, "_update", failing)
    expected = f"IMU sample 140 (t = {float(imu.t[140])!r} s): injected"
    for size in (1, 7, 256):
        monkeypatch.setattr(fusion, "CHUNK_STEPS", size)
        with pytest.raises(error) as excinfo:
            list(fuse_chunks(imu, gnss, FusionConfig()))
        assert type(excinfo.value) is error
        assert str(excinfo.value) == expected
    inputs = write_streams(tmp_path, imu, gnss, truth)
    capsys.readouterr()
    assert main([str(a) for a in ["fuse", *inputs, "--out", tmp_path / "out"]]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "out").exists()


def write_streams(tmp_path, imu, gnss, truth):
    """Write the streams for ``fuse --truth``, without the two fixes
    outside the truth span."""
    write_imu_csv(imu, tmp_path / "imu.csv")
    write_gnss_csv(gnss.take(slice(1, -1)), tmp_path / "gnss.csv")
    write_truth_csv(truth, SCENARIO_ORIGIN, tmp_path / "truth.csv")
    return ["--imu", tmp_path / "imu.csv", "--gnss", tmp_path / "gnss.csv",
            "--truth", tmp_path / "truth.csv"]


def test_failing_run_leaves_no_output(tmp_path, capsys, drive):
    imu, gnss, truth = drive
    inputs = write_streams(tmp_path, overflowing(imu, 280), gnss, truth)
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    used.mkdir()
    (used / "estimate.csv").write_text("previous\n")
    for out in (fresh, used):
        capsys.readouterr()
        assert main([str(a) for a in ["fuse", *inputs, "--out", out]]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: IMU sample 280 (t = {float(imu.t[280])!r} s): overflow "
        )
    # Sample 280 is in the second chunk: the first was written, then removed.
    assert not fresh.exists()
    assert sorted(p.name for p in used.iterdir()) == ["estimate.csv"]
    assert (used / "estimate.csv").read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "gnss.csv", "imu.csv", "truth.csv", "used"
    ]


def test_failing_rmse_write_leaves_no_table(tmp_path, capsys, drive):
    # rmse.csv cannot replace a directory: the tables streamed before it
    # are not renamed into place.
    inputs = write_streams(tmp_path, *drive)
    out = tmp_path / "out"
    (out / "rmse.csv").mkdir(parents=True)
    (out / "rmse.csv" / "kept").write_text("")
    assert main([str(a) for a in ["fuse", *inputs, "--out", out]]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out / 'rmse.csv'}: ")
    assert [p.name for p in out.iterdir()] == ["rmse.csv"]
    assert [p.name for p in (out / "rmse.csv").iterdir()] == ["kept"]


def test_streamed_outputs_equal_whole_run_writers(monkeypatch, tmp_path, drive):
    # fuse's chunks of 7 steps and one whole-run result give the run
    # writer the same bytes, which the per-cell writers reproduce.
    imu, gnss, truth = drive
    inputs = write_streams(tmp_path, imu, gnss, truth)
    monkeypatch.setattr(fusion, "CHUNK_STEPS", 7)
    assert main([str(a) for a in ["fuse", *inputs, "--out", tmp_path / "out"]]) == 0
    streams = cli.read_imu_csv(tmp_path / "imu.csv"), cli.read_gnss_csv(tmp_path / "gnss.csv")
    result = run_fusion(*streams, FusionConfig())
    rows = cli.read_gnss_csv(tmp_path / "truth.csv")
    truth_track = run_gnss_only(rows, result.origin)
    ref = tmp_path / "ref"
    ref.mkdir()
    write_run([result], result.t, truth_track, ref)
    for name in ("estimate.csv", "errors.csv", "track.csv", "rmse.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (ref / name).read_bytes()
    assert 0 < len(np.unique(result.updates["imu_index"])) < len(result.t)
    err = align_and_diff(result.track, truth_track)
    t, est = result.track
    truth_at = reference_truth_at(t, truth_track)
    expected = {
        "estimate.csv": reference_estimates_text(result),
        "errors.csv": reference_errors_text(err),
        "track.csv": reference_track_text(t, est, truth_at, result.updates),
    }
    for name, text in expected.items():
        assert (ref / name).read_text() == text


def test_track_truth_cells_are_the_interpolated_truth(tmp_path, drive):
    # The truth cells of track.csv hold the truth itself, not the estimate
    # minus its error, which carries the estimate's round-off.
    inputs = write_streams(tmp_path, *drive)
    assert main([str(a) for a in ["fuse", *inputs, "--out", tmp_path / "out"]]) == 0
    gnss = cli.read_gnss_csv(tmp_path / "gnss.csv")
    truth_track = run_gnss_only(cli.read_gnss_csv(tmp_path / "truth.csv"),
                                fusion.frame_origin(gnss))
    rows = [line.split(",") for line in
            (tmp_path / "out" / "track.csv").read_text().splitlines()[1:]]
    t = np.array([float(row[0]) for row in rows])
    cells = np.array([[float(cell) for cell in row[4:7]] for row in rows])
    assert same_bits(cells, reference_truth_at(t, truth_track))


def fuse_peak(tmp_path, duration):
    """The tracemalloc peak of the streamed fuse and writes of a 10 Hz
    circular drive of ``duration`` s, with the streams built beforehand."""
    profile = TrajectoryProfile("circular", duration=duration, imu_rate=10.0)
    truth, ideal = generate_truth(profile)
    imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=42), gnss_rate=1.0)
    cfg = FusionConfig()
    truth_track = (truth.t, truth.position)
    out = tmp_path / f"run{duration:g}"
    out.mkdir()
    tracemalloc.start()
    try:
        write_run(fuse_chunks(imu, gnss, cfg), imu.t, truth_track, out)
        return len(imu), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_drive_length(tmp_path):
    # Both drives run whole chunks after the first, where the peak settles.
    (short_n, short), (long_n, long) = fuse_peak(tmp_path, 60.0), fuse_peak(tmp_path, 180.0)
    assert long_n == 3 * short_n
    # The margin holds the fused error column kept for rmse.csv (24 B per
    # step, 29 kB here); holding every step's result row (264 B) as well
    # would add 317 kB.
    assert long - short < 64_000
