"""Spans around linhyp's public entry points, recorded from outside the package.

install() wraps each entry point in place, in every linhyp module that
binds it, so calls the library makes to itself are recorded too.  Each
call becomes one span: name, start, end, parent span, job id, and up to
two work counts read from its result.  Spans stay in memory in flat
arrays and are written out once, when the run ends.  A span's self time
is its duration minus the time its direct children cover; each child
adds its duration to its parent as it closes.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

Count = Callable[[object], tuple[float, float]]

# (module, attribute, counts read from the result); the span is named
# "<module>.<attribute>"
TARGETS: tuple[tuple[str, str, Count | None], ...] = (
    ("census", "EdgeSpaceIndex.__init__", None),
    ("census", "EdgeSpaceIndex.classify_combo", lambda out: (out[1] is None, 0)),
    ("census", "EdgeSpaceIndex.compat_stats", None),
    ("census", "count_linear", lambda out: (out, 0)),
    ("census", "census_by_cluster", lambda out: (out.total, 0)),
    ("switching", "bijection_audit", lambda out: (sum(out.strata.values()) + out.not_plus, 0)),
    ("switching", "ratio_series", None),
    ("montecarlo", "estimate_linear_probability", lambda out: (out.trials, out.hits)),
    ("montecarlo", "draw_subset_ids", lambda out: (len(out), 0)),
    ("montecarlo", "EdgeSampler.unrank", None),
    ("partitions", "sigma", None),
    ("partitions", "log_sigma", None),
    ("asymptotics", "estimate_partite", None),
    ("asymptotics", "estimate_uniform", None),
    ("asymptotics", "estimate_refined_uniform", None),
    ("hypergraphs", "classify", None),
    ("cli", "main", None),
)
# lazily built properties: (module, attribute, cache attribute, counts);
# only the access that builds the value is a span
LAZY_TARGETS: tuple[tuple[str, str, str, Count], ...] = (
    ("census", "EdgeSpaceIndex.cat", "_cat", lambda out: (len(out) ** 2, 0)),
)

# per-call self times: (metric, spans, scale to the metric's unit, name of
# the call-count metric).  Each also yields "<metric>.tail", the highest
# percentile with at least ten calls beyond it (the median below 20 calls).
TIMINGS = (
    ("census.index_build_s", ("census.EdgeSpaceIndex.__init__",), 1.0, "census.index_builds"),
    ("census.cat_build_s", ("census.EdgeSpaceIndex.cat",), 1.0, None),
    ("census.count_linear_s", ("census.count_linear",), 1.0, None),
    ("census.census_by_cluster_s", ("census.census_by_cluster",), 1.0, None),
    ("census.classify_combo_us", ("census.EdgeSpaceIndex.classify_combo",), 1e6, None),
    ("switching.bijection_audit_s", ("switching.bijection_audit",), 1.0, None),
    ("switching.compat_stats_us", ("census.EdgeSpaceIndex.compat_stats",), 1e6, None),
    ("switching.ratio_series_s", ("switching.ratio_series",), 1.0, None),
    ("montecarlo.unrank_us", ("montecarlo.EdgeSampler.unrank",), 1e6, None),
    ("partitions.sigma_s", ("partitions.sigma",), 1.0, None),
    ("partitions.log_sigma_s", ("partitions.log_sigma",), 1.0, None),
    ("asymptotics.estimate_partite_s", ("asymptotics.estimate_partite",), 1.0, None),
    (
        "asymptotics.estimate_uniform_s",
        ("asymptotics.estimate_uniform", "asymptotics.estimate_refined_uniform"),
        1.0,
        None,
    ),
    ("hypergraphs.classify_us", ("hypergraphs.classify",), 1e6, None),
    ("cli.main_s", ("cli.main",), 1.0, None),
)
# work per second over whole (inclusive) calls: (metric, span)
RATES = (
    ("census.count_linear.linear_per_s", "census.count_linear"),
    ("census.census_by_cluster.subsets_per_s", "census.census_by_cluster"),
    ("switching.bijection_audit.subsets_per_s", "switching.bijection_audit"),
    ("montecarlo.trials_per_s", "montecarlo.estimate_linear_probability"),
    ("montecarlo.draw_subset_ids.trials_per_s", "montecarlo.draw_subset_ids"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for metric, _, scale, calls in TIMINGS:
        unit = "us" if scale == 1e6 else "s"
        units[metric] = unit
        units[metric + ".tail"] = unit
        units[calls or metric + ".calls"] = "count"
    units["census.cat_bytes_computed"] = "B"
    units["census.classify_combo.plus_frac"] = "ratio"
    units["montecarlo.hit_frac"] = "ratio"
    for metric, _ in RATES:
        units[metric] = "1/s"
    return units


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.current_job = -1
        self._stack: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")
        self.units = array("d")
        self.extra = array("d")

    def wrap(self, span: str, fn: Callable, count: Count | None = None) -> Callable:
        nid = len(self.names)
        self.names.append(span)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.name)
            parent = stack[-1] if stack else -1
            self.name.append(nid)
            self.parent.append(parent)
            self.job.append(self.current_job)
            self.end.append(0)
            self.child.append(0)
            self.units.append(0.0)
            self.extra.append(0.0)
            stack.append(i)
            t0 = clock()
            self.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[i] = t1
                stack.pop()
                if parent >= 0:
                    self.child[parent] += t1 - t0
            if count is not None:
                self.units[i], self.extra[i] = map(float, count(out))
            return out

        return traced

    def write(self, path: Path, jobs: list[str]) -> None:
        """All spans as flat arrays; durations and self times in nanoseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        np.savez_compressed(
            path,
            span_names=np.array(self.names),
            job_names=np.array(jobs),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start_ns=start - (start[0] if len(start) else 0),
            duration_ns=end - start,
            self_ns=end - start - np.frombuffer(self.child, dtype=np.int64),
            units=np.frombuffer(self.units),
            extra=np.frombuffer(self.extra),
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span; 0 for a layer never called."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        child = np.frombuffer(self.child, dtype=np.int64)
        units = np.frombuffer(self.units)
        extra = np.frombuffer(self.extra)
        ids: dict[str, list[int]] = {}
        for nid, span in enumerate(self.names):
            ids.setdefault(span, []).append(nid)

        def select(*spans: str) -> np.ndarray:
            return np.isin(name, [nid for s in spans for nid in ids.get(s, [])])

        out: dict[str, float] = {}
        for metric, spans, scale, calls in TIMINGS:
            own = (end - start - child)[select(*spans)] * (scale / 1e9)
            n = len(own)
            tail_q = 50.0 if n < 20 else 100.0 * (1.0 - 10.0 / n)
            out[metric] = float(np.percentile(own, 50.0)) if n else 0.0
            out[metric + ".tail"] = float(np.percentile(own, tail_q)) if n else 0.0
            out[calls or metric + ".calls"] = n
        for metric, span in RATES:
            mask = select(span)
            seconds = (end - start)[mask].sum() / 1e9
            out[metric] = float(units[mask].sum() / seconds) if seconds else 0.0
        cat = select("census.EdgeSpaceIndex.cat")
        out["census.cat_bytes_computed"] = float(units[cat].sum())
        combo = select("census.EdgeSpaceIndex.classify_combo")
        out["census.classify_combo.plus_frac"] = float(units[combo].mean()) if combo.any() else 0.0
        draws = select("montecarlo.estimate_linear_probability")
        trials = units[draws].sum()
        out["montecarlo.hit_frac"] = float(extra[draws].sum() / trials) if trials else 0.0
        return out


def install(tracer: Tracer) -> None:
    """Wrap every target that exists in the imported linhyp modules."""
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "linhyp" or name.startswith("linhyp.")
    }
    for module, attr, count in TARGETS:
        mod = modules.get(f"linhyp.{module}")
        owner, _, leaf = attr.rpartition(".")
        span = f"{module}.{attr}"
        if owner:
            cls = getattr(mod, owner, None)
            original = vars(cls).get(leaf) if cls is not None else None
            if original is not None:
                setattr(cls, leaf, tracer.wrap(span, original, count))
            continue
        original = getattr(mod, leaf, None)
        if original is None:
            continue
        wrapped = tracer.wrap(span, original, count)
        for other in modules.values():
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
    for module, attr, cache, count in LAZY_TARGETS:
        owner, _, leaf = attr.rpartition(".")
        cls = getattr(modules.get(f"linhyp.{module}"), owner, None)
        prop = vars(cls).get(leaf) if cls is not None else None
        if not isinstance(prop, property):
            continue
        build = tracer.wrap(f"{module}.{attr}", prop.fget, count)

        def fget(obj, build=build, plain=prop.fget, cache=cache):
            return build(obj) if getattr(obj, cache, None) is None else plain(obj)

        setattr(cls, leaf, property(fget, prop.fset, prop.fdel, prop.__doc__))
