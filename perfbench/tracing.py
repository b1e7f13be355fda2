"""Spans and counts at the layer boundaries, recorded from the benchmark's side.

``Tracer.install`` replaces the public functions of each ``dipolefield``
module, in the namespace the caller looks them up in, by wrappers that
record a span (name, layer, start, end, parent, command id) and the counts
the per-layer metrics need. scipy's ``quad``, ``brentq`` and ``curve_fit``
are wrapped under the names ``blp`` and ``stochastic`` import them as, so
their calls and evaluations are counted where the work happens. Private
helpers are not wrapped. A name a later version of the program no longer
has is skipped, and its metrics read zero.

Spans stay in memory; ``layer_metrics`` derives busy and self times from
them when the run ends.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import Counter

import numpy as np

#: per-layer metric names and units, in the order they are reported
LAYER_METRICS = {
    "cli.import_s": "s", "blp.import_s": "s", "stochastic.import_s": "s",
    "cli.cmd_s": "s", "cli.self_s": "s",
    "model.calls": "count", "model.busy_s": "s",
    "dynamics.closed_form_s": "s", "dynamics.points": "count",
    "blp.sweep_grid_s": "s", "blp.cells": "count", "blp.write_s": "s",
    "blp.n_measure_s": "s", "blp.n_measure_calls": "count", "blp.literal_max_s": "s",
    "blp.quad_calls": "count", "blp.quad_evals": "count", "blp.quad_s": "s",
    "blp.root_calls": "count", "blp.root_evals": "count", "blp.root_evals_per_call": "count",
    "blp.root_s": "s", "blp.self_s": "s",
    "blp.intervals": "count", "blp.quad_failures": "count",
    "stochastic.seed_s": "s", "stochastic.seed_calls": "count",
    "stochastic.ensemble_s": "s", "stochastic.ensemble_self_s": "s",
    "stochastic.traj_steps": "count", "stochastic.ensemble_rss_mb": "MB",
    "stochastic.report_write_s": "s",
    "stochastic.sample_field_s": "s", "stochastic.field_samples": "count",
    "stochastic.spectrum_s": "s", "stochastic.fit_s": "s",
    "trace.overhead_s": "s", "trace.overhead_frac": "frac",
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder with wrappers at the module boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.cmds: list[int] = []
        self.counts: Counter = Counter()
        self.cmd = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.cmds.append(self.cmd)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def spans(self) -> list[dict]:
        return [
            {"name": n, "layer": layer, "start": s, "end": e, "parent": p, "command": c}
            for n, layer, s, e, p, c in zip(self.names, self.layers, self.starts, self.ends,
                                            self.parents, self.cmds)
        ]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, layer: str, count=None, call=None) -> None:
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                result = call(orig, args, kwargs) if call else orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, result, args, kwargs)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self, cli, model, blp, stochastic) -> None:
        """Wrap the public boundaries of every layer; ``uninstall`` undoes it."""
        w = self._wrap
        w(cli, "main", "cli.main", "cli")

        def one(name):
            def inc(c, *_):
                c[name] += 1
            return inc

        for owner in (cli, blp, stochastic):
            for fn in ("read_params", "derive_params", "nondimensionalize"):
                if getattr(owner, fn, None) is getattr(model, fn, None):
                    w(owner, fn, f"model.{fn}", "model", one("model.calls"))

        def points(c, result, args, kwargs):
            c["dynamics.points"] += int(np.size(kwargs.get("t", args[-1] if args else 0)))

        for fn in ("mean_dipole", "mean_inversion"):
            w(stochastic, fn, f"dynamics.{fn}", "dynamics", points)

        def cells(c, rows, *_):
            c["blp.cells"] += len(rows)
            c["blp.intervals"] += sum(len(r.intervals_omega) + len(r.intervals_lambda)
                                      for r in rows)

        def measured(c, res, *_):
            c["blp.n_measure_calls"] += 1
            c["blp.intervals"] += len(res.intervals)

        w(blp, "sweep_grid", "blp.sweep_grid", "blp", cells)
        w(blp, "write_sweep_csv", "blp.write_sweep_csv", "blp")
        w(blp, "write_sweep_json", "blp.write_sweep_json", "blp")
        w(blp, "n_measure", "blp.n_measure", "blp", measured)
        w(blp, "literal_pointwise_max", "blp.literal_pointwise_max", "blp")

        def quad_counts(c, result, args, kwargs):
            c["blp.quad_calls"] += 1
            if kwargs.get("full_output"):
                c["blp.quad_evals"] += int(result[2]["neval"])
                c["blp.quad_failures"] += len(result) > 3

        def brentq_call(orig, args, kwargs):
            # ask for the convergence record, return what the caller asked for
            root, info = orig(*args, **{**kwargs, "full_output": True})
            self.counts["blp.root_evals"] += info.function_calls
            return (root, info) if kwargs.get("full_output") else root

        w(blp, "quad", "blp.quad", "scipy", quad_counts)
        w(blp, "brentq", "blp.brentq", "scipy", one("blp.root_calls"), brentq_call)

        def ensemble_call(orig, args, kwargs):
            before = _maxrss_mb()
            report = orig(*args, **kwargs)
            self.counts["stochastic.ensemble_rss_mb"] += _maxrss_mb() - before
            self.counts["stochastic.traj_steps"] += report.n_realizations * (report.t.size - 1)
            return report

        def samples(c, field, *_):
            c["stochastic.field_samples"] += int(field.values.size)

        w(stochastic, "derive_seed", "stochastic.derive_seed", "stochastic",
          one("stochastic.seed_calls"))
        w(stochastic, "ensemble_average", "stochastic.ensemble_average", "stochastic",
          call=ensemble_call)
        w(stochastic, "sample_field", "stochastic.sample_field", "stochastic", samples)
        w(stochastic, "estimate_spectrum", "stochastic.estimate_spectrum", "stochastic")
        w(stochastic, "curve_fit", "stochastic.curve_fit", "scipy")
        report_cls = getattr(stochastic, "EnsembleReport", None)
        if report_cls is not None:
            w(report_cls, "write_json", "stochastic.report_write_json", "stochastic")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Busy, self and per-boundary times from the spans, plus the counts."""
        dur = np.array(self.ends, dtype=float) - np.array(self.starts, dtype=float)
        child = np.zeros(len(dur))
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        self_time = dur - child
        names = np.array(self.names, dtype=object)
        layers = np.array(self.layers, dtype=object)

        def total(*span_names):
            return float(dur[np.isin(names, span_names)].sum())

        def busy(layer):
            # outermost spans of the layer, so nested calls are not counted twice
            keep = [i for i, lay in enumerate(self.layers)
                    if lay == layer and not self._has_ancestor(i, layer)]
            return float(dur[keep].sum()) if keep else 0.0

        c = self.counts
        m = {
            "cli.cmd_s": total("cli.main"),
            "cli.self_s": float(self_time[names == "cli.main"].sum()),
            "model.calls": c["model.calls"],
            "model.busy_s": busy("model"),
            "dynamics.closed_form_s": busy("dynamics"),
            "dynamics.points": c["dynamics.points"],
            "blp.sweep_grid_s": total("blp.sweep_grid"),
            "blp.cells": c["blp.cells"],
            "blp.write_s": total("blp.write_sweep_csv", "blp.write_sweep_json"),
            "blp.n_measure_s": total("blp.n_measure"),
            "blp.n_measure_calls": c["blp.n_measure_calls"],
            "blp.literal_max_s": total("blp.literal_pointwise_max"),
            "blp.quad_calls": c["blp.quad_calls"],
            "blp.quad_evals": c["blp.quad_evals"],
            "blp.quad_s": total("blp.quad"),
            "blp.root_calls": c["blp.root_calls"],
            "blp.root_evals": c["blp.root_evals"],
            "blp.root_evals_per_call": c["blp.root_evals"] / c["blp.root_calls"]
            if c["blp.root_calls"] else 0.0,
            "blp.root_s": total("blp.brentq"),
            "blp.self_s": float(self_time[layers == "blp"].sum()),
            "blp.intervals": c["blp.intervals"],
            "blp.quad_failures": c["blp.quad_failures"],
            "stochastic.seed_s": total("stochastic.derive_seed"),
            "stochastic.seed_calls": c["stochastic.seed_calls"],
            "stochastic.ensemble_s": total("stochastic.ensemble_average"),
            "stochastic.ensemble_self_s": float(
                self_time[names == "stochastic.ensemble_average"].sum()),
            "stochastic.traj_steps": c["stochastic.traj_steps"],
            "stochastic.ensemble_rss_mb": float(c["stochastic.ensemble_rss_mb"]),
            "stochastic.report_write_s": total("stochastic.report_write_json"),
            "stochastic.sample_field_s": total("stochastic.sample_field"),
            "stochastic.field_samples": c["stochastic.field_samples"],
            "stochastic.spectrum_s": total("stochastic.estimate_spectrum"),
            "stochastic.fit_s": total("stochastic.curve_fit"),
        }
        return {k: float(v) for k, v in m.items()}

    def _has_ancestor(self, i: int, layer: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.layers[p] == layer:
                return True
            p = self.parents[p]
        return False


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime`` output.

    ``cli.import_s`` covers everything ``import dipolefield.cli`` loads: the
    package (whose ``__init__`` imports the layers) plus the cli module.
    """
    cum: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        try:
            _self_us, cum_us, name = (part.strip() for part in line[12:].split("|"))
            cum[name] = int(cum_us) / 1e6
        except ValueError:
            continue  # the header line
    return {
        "cli.import_s": cum.get("dipolefield", 0.0) + cum.get("dipolefield.cli", 0.0),
        "blp.import_s": cum.get("dipolefield.blp", 0.0),
        "stochastic.import_s": cum.get("dipolefield.stochastic", 0.0),
    }
