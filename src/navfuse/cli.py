"""Command-line interface: simulate, fuse, kitti-convert.

Stream schemas (headers are fixed):

* ``imu.csv``   -- ``t,wx,wy,wz,ax,ay,az`` (body frame, rad/s, m/s^2)
* ``gnss.csv``  -- ``t,lat_deg,lon_deg,alt_m``
* ``truth.csv`` -- ``t,lat_deg,lon_deg,alt_m`` (geodetic ground truth)

The readers return a whole file as an :class:`ImuStream` or a
:class:`GnssStream`, and the writers take them.  Exit codes: 0 success,
1 runtime/data error, 2 usage error (also a NaN, infinite or
out-of-range configuration value).  Flags override an optional
``key=value`` config file (``--config``); defaults apply last.  Every
command writes a ``manifest`` echoing the resolved configuration,
sufficient to reproduce the run byte for byte.
"""

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EmptyStream, InvalidNoise, InvalidScaling, NavFuseError
from .evaluate import (
    _fmt,
    _read_table,
    _write_table,
    align_and_diff,
    atomic_write_text,
    export_errors_csv,
    export_rmse_csv,
    export_track_csv,
    rmse,
)
from .fusion import FusionConfig, run_fusion, run_gnss_only
from .geodesy import GeodeticCoord, enu_to_geodetic, geodetic_in_range
from .gnss import GnssNoise, GnssStream, outage_mask
from .kitti import load_sequence
from .simulate import (
    PROFILE_KINDS,
    SCENARIO_ORIGIN,
    SensorCorruption,
    TrajectoryProfile,
    corrupt,
    generate_truth,
)
from .strapdown import ImuNoiseParams, ImuStream


class _UsageError(Exception):
    pass


@contextmanager
def _usage_errors():
    """Report a configuration value that a constructor rejects as a
    usage error."""
    try:
        yield
    except (ValueError, InvalidNoise, InvalidScaling) as exc:
        raise _UsageError(str(exc)) from exc


def _parse_outage(text):
    try:
        start, end = text.split(":")
        start, end = float(start), float(end)
    except ValueError:
        raise _UsageError(f"bad outage window {text!r}; expected START:END") from None
    if not start < end:
        raise _UsageError(f"outage window {text!r} must have START < END")
    return (start, end)


def _read_config_file(path):
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"bad config line {raw!r}; expected key=value")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


class _Resolver:
    """Flags > config file > defaults, recording resolved values."""

    def __init__(self, args):
        self.args = args
        self.file = _read_config_file(args.config) if getattr(args, "config", None) else {}
        self.resolved = {}

    def get(self, key, default, cast=float):
        value = getattr(self.args, key, None)
        if value is None and key in self.file:
            value = cast(self.file[key])
        if value is None:
            value = default
        self.resolved[key] = value
        return value


def _defaults_of(cls):
    return {f.name: f.default for f in fields(cls)}


_PROFILE_DEFAULTS = _defaults_of(TrajectoryProfile)
_IMU_NOISE_DEFAULTS = _defaults_of(ImuNoiseParams)
_FUSION_DEFAULTS = _defaults_of(FusionConfig)
_GNSS_SIGMA_DEFAULT = _defaults_of(GnssNoise)["sigma_e"]


# ---------------------------------------------------------------------------
# CSV I/O for the internal stream schemas
# ---------------------------------------------------------------------------

_IMU_HEADER = "t,wx,wy,wz,ax,ay,az"
_GEODETIC_HEADER = "t,lat_deg,lon_deg,alt_m"


def _geodetic_rows(table):
    return geodetic_in_range(np.radians(table[:, 1]), np.radians(table[:, 2]), table[:, 3])


def read_imu_csv(path):
    """An imu.csv as an :class:`ImuStream`."""
    table = _read_table(path, _IMU_HEADER, 7)
    return ImuStream(table[:, 0], table[:, 1:4], table[:, 4:7])


def read_gnss_csv(path):
    """A gnss.csv or truth.csv as a :class:`GnssStream` without receiver
    sigmas."""
    table = _read_table(path, _GEODETIC_HEADER, 4, valid=_geodetic_rows)
    return GnssStream(table[:, 0], np.radians(table[:, 1]), np.radians(table[:, 2]), table[:, 3])


def write_imu_csv(imu, path):
    _write_table(path, _IMU_HEADER, np.column_stack([imu.t, imu.gyro, imu.accel]))


def write_gnss_csv(gnss, path):
    table = np.column_stack([gnss.t, np.degrees(gnss.lat), np.degrees(gnss.lon), gnss.alt])
    _write_table(path, _GEODETIC_HEADER, table)


def write_truth_csv(truth, origin, path):
    """Write the :class:`Truth` positions, ENU offsets from ``origin``, as
    geodetic rows."""
    write_gnss_csv(GnssStream(truth.t, *enu_to_geodetic(truth.position, origin)), path)


_ESTIMATE_HEADER = (
    "t,e,n,u,ve,vn,vu,qw,qx,qy,qz,"
    "var_pe,var_pn,var_pu,var_ve,var_vn,var_vu,var_re,var_rn,var_ru,"
    "var_bgx,var_bgy,var_bgz,var_bax,var_bay,var_baz,nis,diverged"
)


def write_estimates_csv(result, path):
    """Write a :class:`FusionResult` as ``estimate.csv``: position,
    velocity and attitude (not the biases), the variances, an empty NIS
    cell where no fix was applied, and ``diverged`` as 1 or 0."""
    table = np.column_stack(
        [result.t, result.state[:, 0:10], result.cov_diag, result.nis, result.diverged]
    )
    _write_table(path, _ESTIMATE_HEADER, table)


def _write_manifest(out_dir, entries):
    lines = [f"{key}={value}" for key, value in sorted(entries.items())]
    atomic_write_text(Path(out_dir) / "manifest", "\n".join(lines) + "\n")


def _manifest_value(value):
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (tuple, list)):
        return ";".join(_manifest_value(v) for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_simulate(args):
    res = _Resolver(args)
    profile_kind = res.get("profile", None, str)
    duration = res.get("duration", None, float)
    seed = res.get("seed", None, int)
    if profile_kind is None or duration is None or seed is None:
        raise _UsageError("--profile, --duration, and --seed are required")
    with _usage_errors():
        profile = TrajectoryProfile(
            kind=profile_kind,
            duration=duration,
            imu_rate=res.get("imu_rate", _PROFILE_DEFAULTS["imu_rate"]),
            gnss_rate=res.get("gnss_rate", _PROFILE_DEFAULTS["gnss_rate"]),
            speed=res.get("speed", _PROFILE_DEFAULTS["speed"]),
            radius=res.get("radius", _PROFILE_DEFAULTS["radius"]),
            accel=res.get("accel", _PROFILE_DEFAULTS["accel"]),
        )
        corruption = SensorCorruption(
            seed=int(seed),
            imu=_imu_noise(res),
            gnss=GnssNoise(*(3 * [res.get("gnss_sigma", _GNSS_SIGMA_DEFAULT)])),
            outages=tuple(_parse_outage(o) for o in (args.gnss_outage or [])),
        )

    truth, ideal = generate_truth(profile)
    imu, gnss = corrupt(truth, ideal, corruption, gnss_rate=profile.gnss_rate)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_truth_csv(truth, SCENARIO_ORIGIN, out / "truth.csv")
    write_imu_csv(imu, out / "imu.csv")
    write_gnss_csv(gnss, out / "gnss.csv")

    entries = {key: _manifest_value(v) for key, v in res.resolved.items()}
    entries.update(
        command="simulate",
        tool_version=__version__,
        gnss_outage=";".join(f"{s}:{e}" for s, e in corruption.outages),
        origin_lat_deg=_fmt(math.degrees(SCENARIO_ORIGIN.lat)),
        origin_lon_deg=_fmt(math.degrees(SCENARIO_ORIGIN.lon)),
        origin_alt_m=_fmt(SCENARIO_ORIGIN.height),
    )
    _write_manifest(out, entries)
    return 0


def _imu_noise(res):
    return ImuNoiseParams(
        gyro_std=res.get("gyro_std", _IMU_NOISE_DEFAULTS["gyro_std"]),
        accel_std=res.get("accel_std", _IMU_NOISE_DEFAULTS["accel_std"]),
        gyro_bias_rw=res.get("gyro_bias_rw", _IMU_NOISE_DEFAULTS["gyro_bias_rw"]),
        accel_bias_rw=res.get("accel_bias_rw", _IMU_NOISE_DEFAULTS["accel_bias_rw"]),
    )


def _fusion_config(res):
    d = _FUSION_DEFAULTS
    return FusionConfig(
        alpha=res.get("alpha", d["alpha"]),
        beta=res.get("beta", d["beta"]),
        gamma=res.get("gamma", d["gamma"]),
        imu_noise=_imu_noise(res),
        gnss_noise=GnssNoise(*(3 * [res.get("gnss_sigma", _GNSS_SIGMA_DEFAULT)])),
        init_position_std=res.get("init_position_std", d["init_position_std"]),
        init_velocity_std=res.get("init_velocity_std", d["init_velocity_std"]),
        init_attitude_std=res.get("init_attitude_std", d["init_attitude_std"]),
        init_gyro_bias_std=res.get("init_gyro_bias_std", d["init_gyro_bias_std"]),
        init_accel_bias_std=res.get("init_accel_bias_std", d["init_accel_bias_std"]),
        gnss_gate=res.get("gate", None),
        trace_ceiling=res.get("trace_ceiling", d["trace_ceiling"]),
    )


def _cmd_fuse(args):
    if bool(args.kitti) == bool(args.imu or args.gnss):
        raise _UsageError("provide either --kitti DIR or both --imu and --gnss")
    res = _Resolver(args)
    with _usage_errors():
        cfg = _fusion_config(res)

    if args.kitti:
        imu, gnss = _load_kitti(args, res)
        inputs = {"kitti": args.kitti}
    else:
        if not (args.imu and args.gnss):
            raise _UsageError("--imu and --gnss must be given together")
        imu = read_imu_csv(args.imu)
        gnss = read_gnss_csv(args.gnss)
        inputs = {"imu": args.imu, "gnss": args.gnss}

    outages = [_parse_outage(o) for o in (args.gnss_outage or [])]
    if outages:
        gnss = gnss.take(~outage_mask(gnss.t, outages))

    result = run_fusion(imu, gnss, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_estimates_csv(result, out / "estimate.csv")

    if args.truth:
        # Each fix was converted once, in run_fusion; result.gnss_track is
        # reused for the baseline and the track cells.
        rows = read_gnss_csv(args.truth)
        if not len(rows):
            raise EmptyStream(f"{args.truth}: no truth rows")
        origin = result.origin or GeodeticCoord(rows.lat[0], rows.lon[0], rows.alt[0])
        truth = run_gnss_only(rows, origin)
        fused_err = align_and_diff(result.track, truth)
        export_errors_csv(fused_err, out / "errors.csv")

        reports = []
        if len(gnss):
            reports.append(rmse(align_and_diff(result.gnss_track, truth), "GNSS"))
        reports.append(rmse(fused_err, "GNSS-IMU"))
        export_rmse_csv(reports, out / "rmse.csv")

        t, est = result.track
        truth_interp = est - fused_err[1]
        gnss_cells = np.full((len(t), 3), np.nan)
        fix_t, fix_enu = result.gnss_track
        step = np.searchsorted(t, fix_t, side="right") - 1
        # The last fix anchored to a step fills its cells.
        last = (step >= 0) & np.append(step[1:] != step[:-1], True)
        gnss_cells[step[last]] = fix_enu[last]
        export_track_csv(t, est, truth_interp, gnss_cells, out / "track.csv")

    entries = {key: _manifest_value(v) for key, v in res.resolved.items()}
    entries.update({f"input_{k}": v for k, v in inputs.items()})
    entries.update(
        command="fuse",
        tool_version=__version__,
        truth=args.truth or "",
        gnss_outage=";".join(f"{s}:{e}" for s, e in outages),
    )
    if result.origin is not None:
        entries.update(
            origin_lat_deg=_fmt(math.degrees(result.origin.lat)),
            origin_lon_deg=_fmt(math.degrees(result.origin.lon)),
            origin_alt_m=_fmt(result.origin.height),
        )
    _write_manifest(out, entries)
    return 0


def _load_kitti(args, res):
    rate = res.get("gnss_rate", 1.0)
    if not 0.0 < rate < math.inf:
        raise _UsageError(f"--gnss-rate must be finite and > 0, got {rate}")
    return load_sequence(args.kitti, gnss_rate=rate)


def _cmd_kitti_convert(args):
    res = _Resolver(args)
    imu, gnss = _load_kitti(args, res)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_imu_csv(imu, out / "imu.csv")
    write_gnss_csv(gnss, out / "gnss.csv")
    entries = {key: _manifest_value(v) for key, v in res.resolved.items()}
    entries.update(command="kitti-convert", tool_version=__version__, input_kitti=args.kitti)
    _write_manifest(out, entries)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_noise_flags(p):
    p.add_argument("--gyro-std", dest="gyro_std", type=float,
                   help="gyro white noise (rad/s)")
    p.add_argument("--accel-std", dest="accel_std", type=float,
                   help="accelerometer white noise (m/s^2)")
    p.add_argument("--gyro-bias-walk", dest="gyro_bias_rw", type=float,
                   help="gyro bias random-walk intensity (rad/s^2)")
    p.add_argument("--accel-bias-walk", dest="accel_bias_rw", type=float,
                   help="accelerometer bias random-walk intensity (m/s^3)")
    p.add_argument("--gnss-sigma", dest="gnss_sigma", type=float,
                   help="per-axis GNSS position noise (m)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="navfuse", description="GNSS/IMU fusion toolkit"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate truth and corrupted sensor streams")
    sim.add_argument("--profile", choices=PROFILE_KINDS, help="trajectory shape")
    sim.add_argument("--duration", type=float, help="run length (s)")
    sim.add_argument("--imu-rate", dest="imu_rate", type=float, help="IMU rate (Hz)")
    sim.add_argument("--gnss-rate", dest="gnss_rate", type=float, help="GNSS rate (Hz)")
    sim.add_argument("--speed", type=float, help="profile speed (m/s)")
    sim.add_argument("--radius", type=float, help="profile radius (m)")
    sim.add_argument("--accel", type=float, help="straight-profile acceleration (m/s^2)")
    sim.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")
    sim.add_argument("--gnss-outage", action="append", metavar="START:END",
                     help="drop fixes in [START, END); repeatable")
    _add_noise_flags(sim)
    sim.add_argument("--config", help="key=value config file (flags take precedence)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    fuse = sub.add_parser("fuse", help="run the filter over sensor streams")
    fuse.add_argument("--imu", help="imu.csv path")
    fuse.add_argument("--gnss", help="gnss.csv path")
    fuse.add_argument("--kitti", help="KITTI drive directory (alternative input)")
    fuse.add_argument("--truth", help="truth.csv path; enables errors/rmse/track outputs")
    fuse.add_argument("--gnss-rate", dest="gnss_rate", type=float,
                      help="GNSS decimation rate for --kitti input (Hz)")
    fuse.add_argument("--gnss-outage", action="append", metavar="START:END",
                      help="drop input fixes in [START, END); repeatable")
    fuse.add_argument("--gate", type=float,
                      help="chi-square innovation gate (e.g. 16.27); off by default")
    fuse.add_argument("--trace-ceiling", dest="trace_ceiling", type=float,
                      help="covariance trace above which estimates are flagged diverged")
    fuse.add_argument("--alpha", type=float, help="sigma-point spread")
    fuse.add_argument("--beta", type=float, help="prior-knowledge covariance weight")
    fuse.add_argument("--gamma", type=float, help="secondary scaling factor")
    _add_noise_flags(fuse)
    fuse.add_argument("--init-position-std", dest="init_position_std", type=float)
    fuse.add_argument("--init-velocity-std", dest="init_velocity_std", type=float)
    fuse.add_argument("--init-attitude-std", dest="init_attitude_std", type=float)
    fuse.add_argument("--init-gyro-bias-std", dest="init_gyro_bias_std", type=float)
    fuse.add_argument("--init-accel-bias-std", dest="init_accel_bias_std", type=float)
    fuse.add_argument("--config", help="key=value config file (flags take precedence)")
    fuse.add_argument("--out", required=True, help="output directory")
    fuse.set_defaults(func=_cmd_fuse)

    conv = sub.add_parser("kitti-convert", help="convert a KITTI drive to stream CSVs")
    conv.add_argument("--kitti", required=True, help="KITTI drive directory")
    conv.add_argument("--gnss-rate", dest="gnss_rate", type=float,
                      help="GNSS decimation rate (Hz)")
    conv.add_argument("--config", help="key=value config file (flags take precedence)")
    conv.add_argument("--out", required=True, help="output directory")
    conv.set_defaults(func=_cmd_kitti_convert)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NavFuseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())
