"""Command-line front end.

Subcommands: `synth` writes a synthetic needle cloud, `estimate` fits a
pose to a cloud file, `simulate` runs a seeded experiment, `report`
renders metrics from a log file. Exit codes: 0 success, 1 usage or
config error, 2 runtime failure. All outputs are deterministic for a
fixed seed and config: no timestamps, no environment leakage.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import math
import sys

import numpy as np

from . import geometry as geo
from . import perception as pc
from .config import ConfigError, apply_overrides, config_from_dict, load_config
from .harness import PRESETS, HarnessError, MetricsTally, iter_trials, report_render
from .simworld import InvariantViolation, SimulationError
from .triallog import LogFormatError, iter_logs, write_logs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    """A command-line value that the library rejects."""


@contextlib.contextmanager
def _argument_values():
    # The library rejects bad parameters with ValueError; when they were
    # typed on the command line that is a usage error, not a runtime one.
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"bad argument: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for runtime
    # failures, so steer usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="suturesim", description=__doc__.splitlines()[0])
    span_deg = math.degrees(pc.NeedleSpec.arc_span)  # exactly 180.0, and radians() gives pi back
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic needle point cloud")
    p.add_argument("--out", required=True, help="cloud file to write (x,y,z per line)")
    p.add_argument("--seed", type=int, default=0, help="pose and corruption seed")
    p.add_argument("--n-points", type=int, default=200)
    p.add_argument("--sigma", type=float, default=5e-4, help="gaussian noise, meters")
    p.add_argument("--outliers", type=float, default=0.2, help="box outlier fraction")
    p.add_argument("--occlusion-deg", type=float, default=45.0, help="hidden central arc")
    p.add_argument("--dropout", type=float, default=0.0, help="sample dropout fraction")
    p.add_argument("--radius", type=float, default=pc.NEEDLE_RADIUS)
    p.add_argument("--span-deg", type=float, default=span_deg, help="needle arc span")
    p.add_argument("--truth", help="also write the true pose as JSON here")

    p = sub.add_parser("estimate", help="estimate a needle pose from a cloud file")
    p.add_argument("cloud", help="cloud file (one x,y,z per line)")
    p.add_argument("--radius", type=float, default=pc.NEEDLE_RADIUS)
    p.add_argument("--span-deg", type=float, default=span_deg)
    p.add_argument(
        "--iterations",
        type=int,
        default=pc.DEFAULT_ITERATIONS,
        help="cap on the random samples each RANSAC stage draws; a stage stops "
        "once its best consensus is 99%% certain",
    )
    p.add_argument("--plane-threshold", type=float, default=pc.DEFAULT_PLANE_THRESHOLD)
    p.add_argument("--circle-threshold", type=float, default=pc.DEFAULT_CIRCLE_THRESHOLD)
    p.add_argument("--min-inliers", type=int, default=pc.DEFAULT_MIN_INLIERS)
    p.add_argument("--seed", type=int, default=0, help="hypothesis sampling seed")

    p = sub.add_parser("simulate", help="run a seeded suturing experiment")
    p.add_argument("--config", help="YAML config file (defaults apply when omitted)")
    p.add_argument("--preset", choices=sorted(PRESETS), help="override the config preset")
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--seed", type=int, help="override the base seed")
    p.add_argument("--out", help="write trial logs to this file")
    p.add_argument(
        "--format", choices=("table", "csv"), default="table", help="stdout report format"
    )

    p = sub.add_parser("report", help="render metrics from a log file")
    p.add_argument("--logs", required=True, help="log file produced by simulate --out")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    return parser


def _cmd_synth(args) -> int:
    with _argument_values():
        spec = pc.NeedleSpec(radius=args.radius, arc_span=math.radians(args.span_deg))
        noise = pc.NoiseModel(
            gaussian_sigma=args.sigma,
            outlier_fraction=args.outliers,
            occlusion_arc=math.radians(args.occlusion_deg),
            dropout_fraction=args.dropout,
        )
        rng = np.random.default_rng(args.seed)
        center = rng.uniform(-0.03, 0.03, 3)
        normal = geo.unit(rng.normal(size=3))
        pose = pc.make_needle_pose(center, normal, geo.perpendicular_unit(normal), spec)
        cloud = pc.synth_needle_cloud(pose, spec, noise, args.n_points, rng)
    pc.save_cloud(args.out, cloud, comment=f"synthetic needle cloud, seed={args.seed}")
    if args.truth:
        record = {
            "center": [float(x) for x in pose.center],
            "normal": [float(x) for x in pose.normal],
            "radius": pose.radius,
            "tip": [float(x) for x in pose.tip],
            "swage": [float(x) for x in pose.swage],
        }
        with open(args.truth, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {len(cloud)} points to {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    with _argument_values():
        spec = pc.NeedleSpec(radius=args.radius, arc_span=math.radians(args.span_deg))
        params = pc.RansacParams(args.iterations, args.plane_threshold, args.min_inliers)
        circle = pc.RansacParams(args.iterations, args.circle_threshold, args.min_inliers)
        rng = np.random.default_rng(args.seed)
    cloud = pc.load_cloud(args.cloud)
    pose, diag = pc.estimate_pose(cloud, spec, params, circle, rng)
    sys.stdout.write(pc.format_pose_record(pose, diag))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = load_config(args.config) if args.config else config_from_dict(None)
    config = apply_overrides(config, preset=args.preset, n_trials=args.trials, base_seed=args.seed)
    # Each trial is tallied and written as it ends; none is kept.
    tally = MetricsTally()
    trials = tally.tee(iter_trials(config))
    if args.out:
        write_logs(trials, args.out, n_trials=config.n_trials)
    else:
        for _ in trials:
            pass
    sys.stdout.write(report_render({config.preset: tally.report()}, format=args.format))
    return EXIT_OK


def _cmd_report(args) -> int:
    # iter_logs checks the header's trial count after the last trial, so
    # nothing is printed for a log that fails any check.
    tallies: dict[str, MetricsTally] = collections.defaultdict(MetricsTally)
    for log in iter_logs(args.logs):
        tallies[log.preset].add(log)
    if not tallies:
        print("error: log file contains no trials", file=sys.stderr)
        return EXIT_RUNTIME
    metrics = {preset: tally.report() for preset, tally in tallies.items()}
    sys.stdout.write(report_render(metrics, format=args.format))
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        pc.EstimationError,
        pc.CloudFormatError,
        SimulationError,
        InvariantViolation,
        HarnessError,
        LogFormatError,
        OSError,
        MemoryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
