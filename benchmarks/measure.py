"""One benchmark run: rounds of a workload, their checks, and the metrics.

An untraced run repeats whole rounds while the next one still fits in
--seconds and reports the end-to-end metrics. A traced run makes one
untraced and one traced round of the same inputs, requires identical
outputs from both, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from dataclasses import replace
from pathlib import Path

import checks
import workloads as wl
from suturesim import perception as pc
from tracer import LAYERS, Tracer


def parse_args(doc: str) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _medians(errors: list) -> list[float]:
    return [statistics.median(e[k] for e in errors) if errors else 0.0 for k in range(3)]


class Sweep:
    """stitch_sweep and ablation: one op is one trial."""

    def __init__(self, workload: str, seed: int, config: Path, out: Path):
        self.workload, self.seed, self.config, self.out = workload, seed, config, out
        self.shipped = checks.Shipped.load(config)

    def round(self, tag: str, tracer=None) -> wl.SweepRound:
        return wl.sweep_round(self.workload, self.seed, self.config, self.out, tag, self.shipped)

    @staticmethod
    def ops(r) -> int:
        return r.trials

    @staticmethod
    def same(a, b) -> bool:
        return a.digests == b.digests

    @staticmethod
    def without_outputs(r):
        return r

    @staticmethod
    def ops_per_s(rounds) -> float:
        return sum(r.trials for r in rounds) / sum(r.simulate_s for r in rounds)

    def goal_met_pct(self, r) -> float:
        done = [s for per_preset in r.sutures.values() for s in per_preset]
        return 100.0 * sum(done) / (self.shipped.n_sutures * len(done)) if done else 0.0

    @staticmethod
    def describe(r) -> str:
        means = " ".join(f"{p}={sum(s) / len(s):.2f}" for p, s in r.sutures.items() if s)
        return (
            f"{r.trials} trials: simulate {r.simulate_s:.3f} s ({r.trials / r.simulate_s:.2f}/s), "
            f"report {r.report_s:.3f} s ({r.trials / r.report_s:.1f}/s), "
            f"{r.log_bytes / r.trials:.0f} log bytes/trial, sutures/trial {means}"
        )

    @staticmethod
    def layer_extras(plain, traced, in_loop_errors) -> tuple[dict, list]:
        n = traced.trials
        extras = {
            "harness.events_per_trial": traced.events / n,
            "harness.log_bytes_per_trial": traced.log_bytes / n,
            "harness.report.trials_per_s": plain.trials / plain.report_s,
            "controller.retries_per_trial": traced.retries / n,
        }
        for phase in checks.OBSERVATION_PHASES:
            extras[f"controller.observations.{phase}"] = traced.observations.get(phase, 0) / n
        return extras, _medians(in_loop_errors)


class Estimates:
    """estimate_harsh: one op is one estimate."""

    def __init__(self, seed: int):
        self.spec = pc.NeedleSpec()
        self.clouds = wl.make_clouds(seed, self.spec)

    def round(self, tag: str, tracer=None) -> wl.EstimateRound:
        return wl.estimate_round(self.clouds, self.spec, tracer)

    @staticmethod
    def ops(r) -> int:
        return r.ops

    @staticmethod
    def same(a, b) -> bool:
        return wl.same_poses(a.poses, b.poses)

    @staticmethod
    def without_outputs(r):
        return replace(r, poses=[], errors=[])

    @staticmethod
    def ops_per_s(rounds) -> float:
        return statistics.median(r.ops / r.seconds for r in rounds)

    @staticmethod
    def goal_met_pct(r) -> float:
        return 100.0 * sum(checks.within_tolerance(e) for e in r.errors) / r.ops

    @staticmethod
    def describe(r) -> str:
        c, n, e = _medians(r.errors)
        return (
            f"{r.ops} estimates in {r.seconds:.3f} s ({r.ops / r.seconds:.1f}/s); median error "
            f"center {c:.4f} mm, normal {n:.4f} deg, endpoints {e:.4f} mm"
        )

    @staticmethod
    def layer_extras(plain, traced, in_loop_errors) -> tuple[dict, list]:
        # No trials, logs or controller here: those per-trial figures read 0.
        extras = {
            name: 0.0
            for name in (
                "harness.events_per_trial",
                "harness.log_bytes_per_trial",
                "harness.report.trials_per_s",
                "controller.retries_per_trial",
                *(f"controller.observations.{p}" for p in checks.OBSERVATION_PHASES),
            )
        }
        return extras, _medians(traced.errors)


def untraced(w, args, setup_s: float):
    rounds, problems = [], []
    started = time.perf_counter()
    while True:
        t = time.perf_counter()
        r = w.round("run")
        if rounds:
            if not w.same(rounds[0], r):
                problems.append(f"round {len(rounds) + 1} output differs from round 1")
            r = w.without_outputs(r)  # so memory does not grow with the number of rounds
        rounds.append(r)
        last = time.perf_counter() - t
        if time.perf_counter() - started + last > args.seconds:
            break
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (w.ops_per_s(rounds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "goal_met_pct": (w.goal_met_pct(rounds[0]), "%"),
    }
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s); {w.describe(rounds[0])}")
    return rounds, problems, metrics


def traced(w, args, out: Path, per_layer: list):
    plain = w.round("plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced_round = w.round("traced", tracer)
    finally:
        tracer.uninstall()
    problems = []
    identical = w.same(plain, traced_round)
    if not identical:
        problems.append("traced round's output differs from the untraced round's")
    overhead = traced_round.seconds / plain.seconds
    print(f"{args.workload} seed {args.seed}: untraced {w.describe(plain)}")
    print(f"traced round's outputs identical to the untraced round's: {'yes' if identical else 'NO'}")
    print(
        f"trace overhead: {overhead:.4f} "
        f"(traced {traced_round.seconds:.3f} s / untraced {plain.seconds:.3f} s)"
    )
    layer, in_loop = tracer.metrics(w.ops(traced_round), traced_round.seconds)
    extras, (center, normal, endpoint) = w.layer_extras(plain, traced_round, in_loop)
    layer.update(extras)
    layer.update({
        "trace.overhead": overhead,
        "perception.center_err_mm": center,
        "perception.normal_err_deg": normal,
        "perception.endpoint_err_mm": endpoint,
    })
    shares = ", ".join(f"{x} {layer[f'{x}.self_share_pct']:.1f}%" for x in LAYERS)
    print(f"self-time shares of the traced round: {shares}")
    path = out / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(path)
    print(f"{len(tracer.start)} spans written to {path.name} in {out.name}/")
    metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in per_layer}
    return [plain, traced_round], problems, metrics


def run(args, setup_s: float, root: Path) -> dict:
    """The result object for one run of the benchmark."""
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    config = root / "configs" / "default.yaml"
    if args.workload in wl.SWEEPS:
        w = Sweep(args.workload, args.seed, config, out)
    else:
        w = Estimates(args.seed)
    if args.trace:
        with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
            per_layer = json.load(fh)["per_layer"]
        rounds, problems, metrics = traced(w, args, out, per_layer)
    else:
        rounds, problems, metrics = untraced(w, args, setup_s)
    for r in rounds:
        problems += r.problems
    for p in problems[:20]:
        print(f"check failed: {p}")
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more failed checks")
    failed = sum(r.failed for r in rounds)
    return {
        "correct": not problems and failed == 0,
        "attempted": sum(w.ops(r) for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
