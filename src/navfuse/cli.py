"""Command-line interface: simulate, fuse, kitti-convert.

Stream schemas (headers are fixed):

* ``imu.csv``   -- ``t,wx,wy,wz,ax,ay,az`` (body frame, rad/s, m/s^2)
* ``gnss.csv``  -- ``t,lat_deg,lon_deg,alt_m``
* ``truth.csv`` -- ``t,lat_deg,lon_deg,alt_m`` (geodetic ground truth)

The readers return a whole file as an :class:`ImuStream` or a
:class:`GnssStream`, and the writers take them; both stream the file
(see :mod:`navfuse.evaluate`).  ``fuse`` reads and checks its inputs,
then hands the filter's chunks to :func:`navfuse.evaluate.write_run`,
which writes the run's tables.  Exit codes: 0 success, 1 runtime/data
error, 2 usage error (also a NaN, infinite or out-of-range configuration
value, a config file value that does not parse, or a config file key
that names no setting of any command or is given twice).  Each setting
is a field of a config dataclass, with the field's name and default:
``profile``, ``gnss_sigma`` and ``gate`` are ``TrajectoryProfile.kind``,
``GnssNoise.sigma`` and ``FusionConfig.gnss_gate``.  Flags override an
optional ``key=value`` config file (``--config``); defaults apply last.
Every command writes a ``manifest`` echoing the resolved configuration,
sufficient to reproduce the run byte for byte.
"""

import argparse
import math
import sys
from contextlib import contextmanager, suppress
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EmptyStream, InvalidNoise, InvalidScaling, NavFuseError, UnknownProfileKind
from .evaluate import (
    _fmt,
    _read_table,
    _read_text,
    _write_table,
    atomic_write_text,
    check_span,
    write_run,
)
from .fusion import FusionConfig, frame_origin, fuse_chunks
from .geodesy import GeodeticCoord, enu_to_geodetic, geodetic_in_range, geodetic_to_enu
from .gnss import GnssStream, outage_mask
from .kitti import load_sequence
from .simulate import (
    PROFILE_KINDS,
    SCENARIO_ORIGIN,
    SensorCorruption,
    TrajectoryProfile,
    corrupt,
    generate_truth,
)
from .strapdown import ImuStream, check_times


class _UsageError(Exception):
    pass


@contextmanager
def _usage_errors():
    """Report a value that a config constructor rejects as a usage error."""
    try:
        yield
    except (ValueError, InvalidNoise, InvalidScaling, UnknownProfileKind) as exc:
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


def _read_config_file(path, keys):
    """The ``key=value`` lines of the config file at ``path``; a key not in
    ``keys`` is a usage error."""
    values = {}
    for raw in _read_text(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"bad config line {raw!r}; expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in keys:
            raise _UsageError(f"{path}: config key {key!r} is not a setting of any command")
        if key in values:
            raise _UsageError(f"{path}: config key {key!r} is given twice")
        values[key] = value.strip()
    return values


class _Resolver:
    """Flags > config file > defaults, recording resolved values."""

    def __init__(self, args):
        self.args = args
        self.file = _read_config_file(args.config, args.config_keys) if args.config else {}
        self.resolved = {}

    def get(self, key, default, cast=float):
        value = getattr(self.args, key, None)
        if value is None and key in self.file:
            try:
                value = cast(self.file[key])
            except ValueError as exc:
                raise _UsageError(f"bad value for config key {key!r}: {exc}") from None
        if value is None:
            value = default
        self.resolved[key] = value
        return value


# The settings whose name is not their field's.
_SETTING_OF = {"kind": "profile", "sigma": "gnss_sigma", "gnss_gate": "gate"}


def _settings(cls, res):
    """A ``cls`` config: a nested config (a field with a
    ``default_factory``) built the same way, and any other field from the
    setting of its name, or of :data:`_SETTING_OF`, that ``res``
    resolves; a required setting left unset is a usage error."""
    values = {}
    for f in fields(cls):
        if f.default_factory is not MISSING:
            values[f.name] = _settings(f.default_factory, res)
        else:
            setting = _SETTING_OF.get(f.name, f.name)
            required = f.default is MISSING
            cast = f.type if f.type in (int, str) else float
            values[f.name] = res.get(setting, None if required else f.default, cast)
            if required and values[f.name] is None:
                raise _UsageError(f"--{setting.replace('_', '-')} is required")
    return cls(**values)


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
    _write_table(path, _IMU_HEADER, [imu.t, imu.gyro, imu.accel])


def write_gnss_csv(gnss, path):
    columns = [gnss.t, np.degrees(gnss.lat), np.degrees(gnss.lon), gnss.alt]
    _write_table(path, _GEODETIC_HEADER, columns)


def write_truth_csv(truth, path):
    """Write the :class:`Truth` positions, ENU offsets from
    :data:`SCENARIO_ORIGIN`, as geodetic rows."""
    write_gnss_csv(GnssStream(truth.t, *enu_to_geodetic(truth.position, SCENARIO_ORIGIN)), path)


def _write_manifest(out_dir, command, res, origin=None, **entries):
    """Write ``manifest`` into ``out_dir``: the configuration that the
    :class:`_Resolver` ``res`` resolved, ``command``, the tool version, the
    frame ``origin`` unless it is None, and the ``entries``, one sorted
    ``key=value`` line each."""
    entries = {**{key: _manifest_value(v) for key, v in res.resolved.items()}, **entries}
    entries.update(command=command, tool_version=__version__)
    if origin is not None:
        entries.update(
            origin_lat_deg=_fmt(math.degrees(origin.lat)),
            origin_lon_deg=_fmt(math.degrees(origin.lon)),
            origin_alt_m=_fmt(origin.height),
        )
    lines = [f"{key}={value}" for key, value in sorted(entries.items())]
    atomic_write_text(Path(out_dir) / "manifest", "\n".join(lines) + "\n")


def _manifest_value(value):
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_simulate(args):
    res = _Resolver(args)
    with _usage_errors():
        profile = _settings(TrajectoryProfile, res)
        corruption = _settings(SensorCorruption, res)

    truth, ideal = generate_truth(profile)
    imu, gnss = corrupt(truth, ideal, corruption, gnss_rate=profile.gnss_rate)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_truth_csv(truth, out / "truth.csv")
    write_imu_csv(imu, out / "imu.csv")
    write_gnss_csv(gnss, out / "gnss.csv")

    _write_manifest(out, "simulate", res, SCENARIO_ORIGIN)
    return 0


def _cmd_fuse(args):
    if bool(args.kitti) == bool(args.imu or args.gnss):
        raise _UsageError("provide either --kitti DIR or both --imu and --gnss")
    if args.gnss_rate is not None and not args.kitti:
        raise _UsageError("--gnss-rate applies only to --kitti input")
    res = _Resolver(args)
    with _usage_errors():
        cfg = _settings(FusionConfig, res)

    if args.kitti:
        imu, gnss = _load_kitti(args, res)
        inputs = {"input_kitti": args.kitti}
    else:
        if not (args.imu and args.gnss):
            raise _UsageError("--imu and --gnss must be given together")
        gnss = read_gnss_csv(args.gnss)
        inputs = {"input_imu": args.imu, "input_gnss": args.gnss}
    outages = [_parse_outage(o) for o in (args.gnss_outage or [])]
    if outages:
        gnss = gnss.take(~outage_mask(gnss.t, outages))
    origin = frame_origin(gnss)
    # Truth before the IMU: it is then checked before the longest read,
    # and the IMU stream reuses the memory its conversion freed.
    truth = _read_truth(args.truth, origin) if args.truth else None
    if not args.kitti:
        imu = read_imu_csv(args.imu)
    if truth is not None:
        for t in (imu.t, gnss.t):
            if len(t):
                check_span(t, truth[0])
    out = Path(args.out)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        write_run(fuse_chunks(imu, gnss, cfg), imu.t, truth, out)
    except BaseException:
        # The writers have removed their temp files.
        if made:
            with suppress(OSError):
                out.rmdir()
        raise

    _write_manifest(
        out, "fuse", res, origin, **inputs,
        truth=args.truth or "", gnss_outage=";".join(f"{s}:{e}" for s, e in outages),
    )
    return 0


def _read_truth(path, origin):
    """The truth.csv at ``path`` as a track (t, ENU positions) in the frame
    at ``origin``, or at its first row when ``origin`` is None.  The times
    are checked as a :class:`GnssStream` checks them."""
    table = _read_table(path, _GEODETIC_HEADER, 4, valid=_geodetic_rows)
    if not len(table):
        raise EmptyStream(f"{path}: no truth rows")
    t = table[:, 0].copy()
    check_times(t, strict=False)
    lat, lon = np.radians(table[:, 1]), np.radians(table[:, 2])
    alt = table[:, 3].copy()
    del table  # freed before the conversion's temporaries
    origin = origin or GeodeticCoord(lat[0], lon[0], alt[0])
    return t, geodetic_to_enu(lat, lon, alt, origin)


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
    _write_manifest(out, "kitti-convert", res, input_kitti=args.kitti)
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
                   help="GNSS position noise (m, every ENU axis)")


_NOT_SETTINGS = {"help", "imu", "gnss", "kitti", "truth", "gnss_outage", "config", "out"}


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
    sim.add_argument("--seed", type=int, help="64-bit RNG seed")
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

    # A config file may set any command's settings, so that one file
    # serves them all; the options that name files or outage windows are
    # not settings.
    keys = {action.dest for command in sub.choices.values() for action in command._actions}
    parser.set_defaults(config_keys=keys - _NOT_SETTINGS)
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


if __name__ == "__main__":
    entry()
