"""Per-layer tracing of a ghznetsim run, from outside the package.

The tracer replaces public functions of the package's modules by timing
wrappers, set as module attributes. The engine, protocols and routing look
these names up through their modules (or through their own module globals),
so every call site sees the wrapper; nothing under ``src/`` changes.

Functions called a bounded number of times per cell or trial (cells, user
sets, trials, file writers) get one span each: name, start, end, parent span
and the time of traced calls nested inside it. Per-slot functions would need
millions of spans, so their count, time and child time are accumulated on
the enclosing span instead, which keeps trace memory bounded by the number of
trials.

A function's self time is its time minus the time of the traced calls nested
inside it. Summed over all functions, self times plus the time spent outside
any traced call add up to the traced wall time exactly.
"""

from __future__ import annotations

import os
import time

SPAN = "span"
COUNT = "count"

# (module, function, kind), in the order the metrics are printed
TARGETS = (
    ("cli", "main", SPAN),
    ("experiments", "run_sweep", SPAN),
    ("experiments", "write_csv", SPAN),
    ("experiments", "write_summary", SPAN),
    ("experiments", "write_trials_jsonl", SPAN),
    ("engine", "run_experiment", SPAN),
    ("engine", "aggregate", SPAN),
    ("engine", "dr_confidence_interval", COUNT),
    ("engine", "run_user_set", SPAN),
    ("engine", "run_trial", SPAN),
    ("engine", "step", COUNT),
    ("protocols", "initialize", SPAN),
    ("protocols", "try_complete", COUNT),
    ("protocols", "realize_ghz", COUNT),
    ("routing", "select_single_path", SPAN),
    ("routing", "select_multipath", COUNT),
    ("routing", "users_connected", COUNT),
    ("routing", "star_flow_feasible", COUNT),
    ("routing", "exact_steiner_tree", COUNT),
    ("routing", "star_route", COUNT),
    ("statesim", "pipeline_fidelity", COUNT),
)

MODULES = ("cli", "experiments", "engine", "protocols", "routing", "statesim")


def _written_bytes(args, result) -> int:
    path = args[1]
    return os.path.getsize(path) if os.path.exists(path) else 0


# per-call outcome summed into a fourth statistic: a count of true outcomes
# (reported per call, as a ratio) or the bytes a writer left on disk
OUTCOMES = {
    "engine.run_trial": ("success_ratio", lambda args, result: result.success),
    "routing.select_multipath": ("hit_ratio", lambda args, result: result is not None),
    "routing.users_connected": ("true_ratio", lambda args, result: result),
    "routing.star_flow_feasible": ("true_ratio", lambda args, result: result),
    "experiments.write_csv": ("bytes", _written_bytes),
    "experiments.write_summary": ("bytes", _written_bytes),
    "experiments.write_trials_jsonl": ("bytes", _written_bytes),
}


class Tracer:
    """Install with ``install(modules)``; always ``uninstall()`` afterwards."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.root = {"id": -1, "name": "root", "parent": None, "start": 0.0,
                     "end": None, "child": 0.0, "agg": {}}
        self.spans: list[dict] = []
        self._frames = [[0.0]]          # child time of each active traced call
        self._open = [self.root]        # active spans, innermost last
        self._installed: list[tuple] = []

    def install(self, modules: dict) -> None:
        for mod_name, fn_name, kind in TARGETS:
            module = modules[mod_name]
            original = getattr(module, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrap = self._span if kind == SPAN else self._count
            setattr(module, fn_name, wrap(name, original, OUTCOMES.get(name, (None, None))[1]))
            self._installed.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._installed):
            setattr(module, fn_name, original)
        self._installed.clear()

    def _span(self, name, func, outcome):
        frames, opened, spans = self._frames, self._open, self.spans
        clock, origin = time.perf_counter, self.origin

        def wrapper(*args, **kwargs):
            record = {"id": len(spans), "name": name, "parent": opened[-1]["id"],
                      "start": 0.0, "end": 0.0, "child": 0.0, "agg": {}}
            spans.append(record)
            frame = [0.0]
            frames.append(frame)
            opened.append(record)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                opened.pop()
                frames[-1][0] += t1 - t0
                record["start"] = t0 - origin
                record["end"] = t1 - origin
                record["child"] = frame[0]
            if outcome is not None:
                record["outcome"] = outcome(args, result)
            return result

        return wrapper

    def _count(self, name, func, outcome):
        frames, opened, clock = self._frames, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1][0] += dt
                agg = opened[-1]["agg"].get(name)
                if agg is None:
                    agg = opened[-1]["agg"][name] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += frame[0]
            if outcome is not None:
                agg[3] += outcome(args, result)
            return result

        return wrapper

    def traced_time(self) -> float:
        """Time spent inside outermost traced calls."""
        return self._frames[0][0]

    def function_stats(self) -> dict[str, list]:
        """Per function: [calls, time_s, child_s, outcome sum]."""
        stats = {f"{m}.{f}": [0, 0.0, 0.0, 0] for m, f, _ in TARGETS}
        for record in [self.root] + self.spans:
            if record is not self.root:
                s = stats[record["name"]]
                s[0] += 1
                s[1] += record["end"] - record["start"]
                s[2] += record["child"]
                s[3] += record.get("outcome", 0)
            for name, agg in record["agg"].items():
                s = stats[name]
                for i in range(4):
                    s[i] += agg[i]
        return stats

    def dump(self) -> dict:
        return {"spans": self.spans, "root_agg": self.root["agg"]}


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    stats = tracer.function_stats()
    out: dict[str, tuple] = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, (calls, total, child, outcome_sum) in stats.items():
        self_s = total - child
        module_self[name.split(".")[0]] += self_s
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.time_s"] = (total, "s")
        out[f"{name}.self_s"] = (self_s, "s")
        if name in OUTCOMES:
            stat = OUTCOMES[name][0]
            if stat == "bytes":
                out[f"{name}.bytes"] = (outcome_sum, "B")
            else:
                out[f"{name}.{stat}"] = (outcome_sum / calls if calls else 0.0, "ratio")
    complete = stats["protocols.try_complete"][0]
    out["protocols.try_complete.routed_ratio"] = (
        stats["routing.select_multipath"][0] / complete if complete else 0.0, "ratio")
    for module, self_s in module_self.items():
        out[f"{module}.self_s"] = (self_s, "s")
        out[f"{module}.share"] = (self_s / traced_wall, "ratio")
    out["traced_wall_s"] = (traced_wall, "s")
    out["untraced_s"] = (traced_wall - tracer.traced_time(), "s")
    out["trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    return out
