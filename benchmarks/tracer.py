"""Run-time tracing of suturesim's layers, from outside the package.

`Tracer.install` rebinds, in every loaded suturesim module, the public
module-level functions of geometry, perception, simworld, controller and
harness, and the public methods of simworld.WorldState, to timing
wrappers; `uninstall` puts the originals back. No source file changes.

Three kinds of wrapper keep the cost in proportion to the call rate:

* a span (name, start, end, parent span, op, ok) for every harness,
  controller and simworld call and for perception's five pipeline
  entry points (estimate, plane RANSAC, circle RANSAC, endpoints and
  the cloud renderer);
* a call count for perception's other functions (arc_frame, arc_points,
  canonical_normal, ...), which run hundreds of times per trial;
* a call count plus outermost-call time for geometry, whose functions
  run thousands of times per trial and call each other.

Spans live in flat arrays and are written out once, by `write`.
A span's self time is its duration minus that of its direct child spans.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from checks import Pose, pose_errors

LAYERS = ("harness", "controller", "simworld", "perception", "geometry")

# perception functions that get a span; its other public functions are counted
PERCEPTION_SPANS = {
    "estimate_needle_pose": "perception.estimate",
    "fit_plane_ransac": "perception.plane_ransac",
    "fit_circle_fixed_radius": "perception.circle_ransac",
    "extract_endpoints": "perception.endpoints",
    "sample_visible_cloud": "perception.render",
}

# p95 is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.ok = array("b")
        self.geo = array("d")  # outermost geometry time inside each span, directly
        self.stack: list[int] = []
        self.current_op = -1
        self.trials = 0
        self.calls: dict[str, list] = defaultdict(lambda: [0])
        self.geo_seconds = 0.0
        self._geo_depth = 0
        self._estimate_depth = 0
        self.cloud_points = 0
        self.observed: list = []  # (estimate, truth) per successful in-loop observation
        self._undo: list = []

    # -- wrappers ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._id(name)
        stack = self.stack
        enter, leave = self._hooks(name)

        def traced(*args, **kwargs):
            if enter is not None:
                enter(args)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.ok.append(0)
            self.geo.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            result = None
            try:
                result = fn(*args, **kwargs)
                self.ok[idx] = 1
                return result
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
                if leave is not None:
                    leave(idx, args, result)

        return traced

    def _hooks(self, name: str):
        if name == "harness.run_trial":

            def enter(args):
                self.current_op = self.trials
                self.trials += 1

            def leave(idx, args, result):
                self.current_op = -1

            return enter, leave
        if name == "perception.estimate":

            def enter(args):
                self._estimate_depth += 1
                self.cloud_points += len(args[0])

            def leave(idx, args, result):
                self._estimate_depth -= 1

            return enter, leave
        if name == "simworld.visible_intervals":
            clear = self._id("simworld.visible_intervals.clear")
            buried = self._id("simworld.visible_intervals.buried")

            def leave(idx, args, result):
                full = [(0.0, args[0].spec.arc_span)]
                self.name[idx] = clear if result == full else buried

            return None, leave
        if name == "simworld.observe":

            def leave(idx, args, result):
                if result is not None:
                    self.observed.append((result, args[0].needle_true))

            return None, leave
        return None, None

    def _count(self, name: str, fn):
        cell = self.calls[name]
        if name == "perception.arc_points":
            outside = self.calls["perception.arc_points.outside_estimate"]

            def counted(*args, **kwargs):
                cell[0] += 1
                if not self._estimate_depth:
                    outside[0] += 1
                return fn(*args, **kwargs)

            return counted

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _geometry(self, name: str, fn):
        cell = self.calls[name]
        stack = self.stack

        def timed(*args, **kwargs):
            cell[0] += 1
            if self._geo_depth:
                return fn(*args, **kwargs)
            self._geo_depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._geo_depth = 0
                self.geo_seconds += dt
                if stack:
                    self.geo[stack[-1]] += dt

        return timed

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        from suturesim import controller, geometry, harness, perception, simworld

        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "suturesim"]
        for layer, module in (
            ("geometry", geometry),
            ("perception", perception),
            ("simworld", simworld),
            ("controller", controller),
            ("harness", harness),
        ):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if layer == "geometry":
                    wrapped = self._geometry(name, fn)
                elif layer == "perception" and attr not in PERCEPTION_SPANS:
                    wrapped = self._count(name, fn)
                else:
                    wrapped = self._span(PERCEPTION_SPANS.get(attr, name), fn)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)
                            self._undo.append((m, key, fn))
        for attr, fn in list(vars(simworld.WorldState).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            setattr(simworld.WorldState, attr, self._span(f"simworld.{attr}", fn))
            self._undo.append((simworld.WorldState, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, fn = self._undo.pop()
            setattr(owner, key, fn)

    # -- results ---------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzipped TSV; times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\top\tok\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.3f}\t"
                    f"{(self.end[i] - t0) * 1e6:.3f}\t{self.parent[i]}\t{self.op[i]}\t{self.ok[i]}\n"
                )

    def metrics(self, ops: int, wall_s: float) -> tuple[dict, list]:
        """Per-layer figures, and the errors of the in-loop pose estimates.

        `ops` counts the traced round's trials or estimates; `wall_s` is
        its wall time, the base of each layer's self-time share.
        """
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        total: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        run_trial: list[float] = []
        render = [0.0, 0]
        for i in range(n):
            name = names[self.name[i]]
            total[name] += dur[i]
            self_total[name] += dur[i] - child[i]
            count[name] += 1
            failed[name] += not self.ok[i]
            layer_self[name.split(".")[0]] += dur[i] - child[i] - self.geo[i]
            if name == "harness.run_trial":
                run_trial.append(dur[i])
            elif name == "perception.render" and self.parent[i] >= 0 and (
                names[self.name[self.parent[i]]] == "simworld.observe"
            ):
                render[0] += dur[i]
                render[1] += 1
        layer_self["geometry"] = self.geo_seconds
        trials = self.trials

        def per(x, d):
            return x / d if d else 0.0

        def ms_per_call(name):
            return per(total[name], count[name]) * 1e3

        def self_ms_per_call(name):
            return per(self_total[name], count[name]) * 1e3

        def calls(name):
            return self.calls[name][0]

        p95 = 0.0
        if len(run_trial) >= 20 * TAIL_SAMPLES:
            p95 = statistics.quantiles(run_trial, n=20)[18] * 1e3
        # simulate and report each pass every trial through compute_metrics once
        passes = per(count["harness.compute_metrics"], count["harness.run_experiment"])
        errors = [pose_errors(Pose.of(e), Pose.of(t)) for e, t in self.observed]
        out = {
            "harness.run_trial.ms_p50": statistics.median(run_trial) * 1e3 if run_trial else 0.0,
            "harness.run_trial.ms_p95": p95,
            "harness.write_logs.ms_per_trial": per(total["harness.write_logs"], trials) * 1e3,
            "harness.read_logs.ms_per_trial": per(total["harness.read_logs"], trials) * 1e3,
            "harness.compute_metrics.ms_per_trial": per(total["harness.compute_metrics"], trials * passes)
            * 1e3,
            "simworld.make_world.ms_per_trial": per(total["simworld.make_world"], trials) * 1e3,
            "simworld.observe.calls_per_trial": per(count["simworld.observe"], trials),
            "simworld.observe.failed_per_trial": per(failed["simworld.observe"], trials),
            "simworld.observe.self_ms_per_call": self_ms_per_call("simworld.observe"),
            "simworld.visible_intervals.buried.ms_per_call": ms_per_call("simworld.visible_intervals.buried"),
            "simworld.visible_intervals.buried.calls_per_trial": per(count["simworld.visible_intervals.buried"], trials),
            "simworld.visible_intervals.clear.ms_per_call": ms_per_call("simworld.visible_intervals.clear"),
            "simworld.visible_intervals.clear.calls_per_trial": per(count["simworld.visible_intervals.clear"], trials),
            "simworld.render.ms_per_call": per(render[0], render[1]) * 1e3,
            "simworld.execute.ms_per_call": ms_per_call("simworld.execute"),
            "simworld.execute.calls_per_trial": per(count["simworld.execute"], trials),
            "simworld.arc_points.calls_per_trial": per(calls("perception.arc_points.outside_estimate"), trials),
            "controller.run_suture.self_ms_per_call": self_ms_per_call("controller.run_suture"),
            "controller.pose_correction.ms_per_call": ms_per_call("controller.pose_correction"),
            "controller.sweep_thread.ms_per_call": ms_per_call("controller.sweep_thread"),
            "perception.estimate.ms_per_call": ms_per_call("perception.estimate"),
            "perception.estimate.self_ms_per_call": self_ms_per_call("perception.estimate"),
            "perception.plane_ransac.ms_per_call": ms_per_call("perception.plane_ransac"),
            "perception.circle_ransac.ms_per_call": ms_per_call("perception.circle_ransac"),
            "perception.endpoints.ms_per_call": ms_per_call("perception.endpoints"),
            "perception.cloud_points_per_call": per(self.cloud_points, count["perception.estimate"]),
            "perception.estimate.failed": failed["perception.estimate"],
            "perception.arc_frame.calls_per_op": per(calls("perception.arc_frame"), ops),
            "geometry.as_point.calls_per_op": per(calls("geometry.as_point"), ops),
            "geometry.plane_basis.calls_per_op": per(calls("geometry.plane_basis"), ops),
            "geometry.ms_per_op": per(self.geo_seconds, ops) * 1e3,
        }
        for layer in LAYERS:
            out[f"{layer}.self_share_pct"] = 100.0 * per(layer_self[layer], wall_s)
        return out, errors
