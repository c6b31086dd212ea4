"""Seeded generator of a KITTI raw drive in OXTS layout.

The drive follows a closed-form trajectory that does not use
``navfuse.simulate``, so the benchmark input stays fixed when the
simulator changes.  Layout::

    <drive>/oxts/timestamps.txt        one "YYYY-MM-DD HH:MM:SS.nnnnnnnnn" per frame
    <drive>/oxts/data/NNNNNNNNNN.txt   one 30-field OXTS record per frame
    <drive>/truth.csv                  t,lat_deg,lon_deg,alt_m at every frame
    <drive>/channels.npy               t and the six body-frame IMU channels

Frames are nominally 1/RATE apart with seeded uniform jitter, quantised to
whole nanoseconds.  The IMU channels follow navfuse's zero-order-hold
convention: frame k carries the exact heading change and the exact
velocity change over [t_{k-1}, t_k] divided by that frame's own interval,
the velocity change resolved in the body frame at t_{k-1} with the gravity
reaction restored.  White noise of a tactical-grade unit (``gyro_std``
and ``accel_std`` in :data:`PARAMS`, well below navfuse's default IMU
noise) is added, and the benchmark tells the filter these values.
Each record's ``pos_accuracy`` varies smoothly between 1 and 3 m, and its
position carries ENU noise with exactly that standard deviation.

Only the timestamp jitter depends on the seed.  The sensor noise comes
from the fixed ``noise_seed``: with noise drawn per seed, the fused RMSE
of a 600 s drive spread by a quarter between seeds (interquartile range
over median, ten seeds), more than any accuracy bound could tolerate.
"""

import hashlib
import json
import shutil
from datetime import datetime, timedelta

import numpy as np

import wgs84

GRAVITY = 9.80665
ORIGIN = (49.011, 8.4227, 112.0)  # lat_deg, lon_deg, alt_m (Karlsruhe)
EPOCH = datetime(2011, 9, 26, 13, 2, 25)

PARAMS = {
    "version": 1,
    "duration_s": 600.0,
    "rate_hz": 10.0,
    "jitter_ms": 3.0,
    "speed_east": 4.0,
    "north_amp": 60.0,
    "north_period": 150.0,
    "up_amp": 2.0,
    "up_period": 200.0,
    "gyro_std": 0.0002,
    "accel_std": 0.005,
    "noise_seed": 42,
}

KEEP_CACHED = 3


def _kinematics(t, p):
    """Closed-form ENU position, velocity and heading at times ``t``."""
    wn = 2.0 * np.pi / p["north_period"]
    wu = 2.0 * np.pi / p["up_period"]
    pos = np.stack(
        [
            p["speed_east"] * t,
            p["north_amp"] * (1.0 - np.cos(wn * t)),
            p["up_amp"] * (1.0 - np.cos(wu * t)),
        ],
        axis=-1,
    )
    vel = np.stack(
        [
            np.full_like(t, p["speed_east"]),
            p["north_amp"] * wn * np.sin(wn * t),
            p["up_amp"] * wu * np.sin(wu * t),
        ],
        axis=-1,
    )
    yaw = np.arctan2(vel[:, 1], vel[:, 0])
    return pos, vel, yaw


def generate(seed, p=PARAMS):
    """Return the drive as arrays: (stamps_ns, channels, truth, records)."""
    n = int(round(p["duration_s"] * p["rate_hz"])) + 1
    nominal_ns = np.arange(n, dtype=np.int64) * int(round(1e9 / p["rate_hz"]))
    jitter = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    jitter_ns = np.rint(jitter * p["jitter_ms"] * 1e6).astype(np.int64)
    jitter_ns[0] = 0
    stamps_ns = nominal_ns + jitter_ns
    t = (stamps_ns - stamps_ns[0]) / 1e9

    pos, vel, yaw = _kinematics(t, p)
    dt = np.diff(t)
    gyro = np.zeros((n, 3))
    accel = np.zeros((n, 3))
    dyaw = np.diff(yaw)
    gyro[1:, 2] = (np.mod(dyaw + np.pi, 2.0 * np.pi) - np.pi) / dt
    a_nav = np.diff(vel, axis=0) / dt[:, None]
    c, s = np.cos(yaw[:-1]), np.sin(yaw[:-1])
    accel[1:, 0] = c * a_nav[:, 0] + s * a_nav[:, 1]
    accel[1:, 1] = -s * a_nav[:, 0] + c * a_nav[:, 1]
    accel[1:, 2] = a_nav[:, 2] + GRAVITY
    # Frame 0 is never integrated; it carries the instantaneous reading.
    accel[0, 2] = GRAVITY
    rng = np.random.default_rng(p["noise_seed"])
    gyro += rng.standard_normal((n, 3)) * p["gyro_std"]
    accel += rng.standard_normal((n, 3)) * p["accel_std"]

    # A 1 Hz receiver solution: its error is drawn per whole second of
    # drive time and held over that second's frames, so whichever frame
    # the 1 Hz decimation keeps carries the same error at every seed.
    second = np.floor(t).astype(np.int64)
    n_sec = int(second[-1]) + 1
    phase = rng.uniform(0.0, 2.0 * np.pi)
    sec_accuracy = 2.0 + np.sin(2.0 * np.pi * np.arange(n_sec) / 97.0 + phase)
    sec_noise = rng.standard_normal((n_sec, 3)) * sec_accuracy[:, None]
    pos_accuracy = sec_accuracy[second]
    fix_enu = pos + sec_noise[second]

    truth = np.column_stack([t, *wgs84.enu_to_geodetic(pos, ORIGIN)])
    fix_geo = np.column_stack(wgs84.enu_to_geodetic(fix_enu, ORIGIN))
    speed = np.hypot(vel[:, 0], vel[:, 1])
    records = np.column_stack(
        [
            fix_geo,                                   # lat lon alt
            np.zeros(n), np.zeros(n), yaw,             # roll pitch yaw
            vel[:, 1], vel[:, 0], speed, np.zeros(n), vel[:, 2],  # vn ve vf vl vu
            accel, accel,                              # ax ay az af al au
            gyro, gyro,                                # wx wy wz wf wl wu
            pos_accuracy, np.full(n, 0.05),            # pos/vel accuracy
        ]
    )
    channels = np.column_stack([t, gyro, accel])
    return stamps_ns, channels, truth, records


def _stamp_line(ns):
    whole, frac = divmod(int(ns), 1_000_000_000)
    return f"{(EPOCH + timedelta(seconds=whole)).strftime('%Y-%m-%d %H:%M:%S')}.{frac:09d}"


def _g(x):
    return format(float(x), ".17g")


def write_drive(seed, drive):
    """Write the drive for ``seed`` into the directory ``drive``."""
    stamps_ns, channels, truth, records = generate(seed)
    data_dir = drive / "oxts" / "data"
    data_dir.mkdir(parents=True)
    (drive / "oxts" / "timestamps.txt").write_text(
        "\n".join(_stamp_line(ns) for ns in stamps_ns) + "\n"
    )
    tail = " 4 10 5 5 6"  # navstat numsats posmode velmode orimode
    for k, row in enumerate(records):
        (data_dir / f"{k:010d}.txt").write_text(" ".join(_g(v) for v in row) + tail + "\n")
    lines = ["t,lat_deg,lon_deg,alt_m"]
    lines += [",".join(_g(v) for v in row) for row in truth]
    (drive / "truth.csv").write_text("\n".join(lines) + "\n")
    np.save(drive / "channels.npy", channels)


def _last_used(drive):
    marker = drive / "complete"
    return marker.stat().st_mtime if marker.exists() else 0.0


def cached_drive(seed, cache_root):
    """Path of the drive for ``seed``, generating it on first use.

    Drives are cached under ``cache_root`` keyed by the seed and every
    generator parameter; only the most recently used few are kept.
    """
    key = hashlib.sha256(json.dumps([seed, PARAMS], sort_keys=True).encode()).hexdigest()[:16]
    cache_root.mkdir(parents=True, exist_ok=True)
    drive = cache_root / f"kitti-{key}"
    if not (drive / "complete").exists():
        shutil.rmtree(drive, ignore_errors=True)
        write_drive(seed, drive)
        (drive / "complete").write_text("")
    (drive / "complete").touch()
    cached = sorted(cache_root.glob("kitti-*"), key=_last_used, reverse=True)
    for old in cached[KEEP_CACHED:]:
        shutil.rmtree(old, ignore_errors=True)
    return drive
