"""Span tracing of one locstat campaign, from outside the package.

The tracer replaces the callables at each layer boundary with wrappers, in
the namespace where the caller looks them up (``experiments._draw_increments_rows``
rather than the function's home module, ``ExprFunc.__call__`` on the class).
Each call records a span: name, parent span, start, end and up to two work
counts. Spans stay in memory in flat arrays and are reduced to per-layer
metrics, and optionally saved, once the campaign has ended.

Only layer boundaries are traced, never the commands that enclose them, so
the spans with no traced parent are the layers' own outermost calls and
``trace.unattributed_share`` is the share of the campaign outside all of them.

A target whose module or attribute no longer exists is skipped and reported;
a layer with no target left is absent and its metrics read 0. The time a
missing target covered moves to the self time of the traced span that called
it, or, when no traced span encloses it, to ``trace.unattributed_share``.
"""

import functools
import importlib
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span recorder; one per traced invocation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.work = array("d")
        self.aux = array("d")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span: str, work=None, aux=None):
        """Return ``fn`` wrapped so every call records a span named ``span``.

        ``work(args, result)`` and ``aux(args, result)`` give the span's
        counts. functools.wraps keeps the name, so a wrapped module-level
        function still pickles by reference.
        """
        nid = self._id(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.t0)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.work.append(0.0)
            self.aux.append(0.0)
            self.t1.append(0.0)
            self._stack.append(i)
            self.t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[i] = clock()
                self._stack.pop()
            if work is not None:
                self.work[i] = work(args, result)
            if aux is not None:
                self.aux[i] = aux(args, result)
            return result

        return traced

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=float).copy(),
            "t1": np.frombuffer(self.t1, dtype=float).copy(),
            "work": np.frombuffer(self.work, dtype=float).copy(),
            "aux": np.frombuffer(self.aux, dtype=float).copy(),
        }


class _ModuleView:
    """Stand-in for a module name binding inside one caller's namespace, so a
    library function (``scipy.linalg.expm``) is traced only where that
    caller uses it."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _n_cells(args, result):
    return float(result.size)


def _scan_cells(args, result):
    phi, eta_t = args[0], args[1]
    return float(phi.shape[0] * eta_t.shape[1])


def _exact_steps(args, result):
    gaps, R = args[2], args[3]
    return float(R * (len(gaps) + 1))


# (module, attribute, span name, work, aux). An attribute "Class.method" is
# patched on the class; "linalg.expm" replaces the module's ``linalg`` binding
# with a view whose ``expm`` is traced.
TARGETS = [
    ("locstat.experiments", "_draw_increments_rows", "noise.draw", _n_cells, None),
    ("locstat.dynamics", "_draw_increments_rows", "noise.draw", _n_cells, None),
    ("locstat._core", "scan_segment", "core.scan", _scan_cells, None),
    ("locstat.experiments", "build_scalar_plan_rescaled", "dynamics.plan",
     lambda a, r: float(r.n_steps), lambda a, r: float(len(r.segment_bounds))),
    ("locstat.dynamics", "build_scalar_plan_rescaled", "dynamics.plan",
     lambda a, r: float(r.n_steps), lambda a, r: float(len(r.segment_bounds))),
    ("locstat.experiments", "run_scalar_plan", "dynamics.run", _n_cells, None),
    ("locstat.dynamics", "run_scalar_plan", "dynamics.run", _n_cells, None),
    ("locstat.dynamics", "_simulate_yn_statespace", "dynamics.statespace",
     lambda a, r: float(r.values.size), None),
    ("locstat.dynamics", "linalg.expm", "dynamics.propagator", None, None),
    ("locstat.expressions", "ExprFunc.__call__", "expressions.eval", None, None),
    ("locstat.expressions", "ExprVector.__call__", "expressions.vector", None, None),
    ("locstat.expressions", "ExprMatrix.__call__", "expressions.matrix", None, None),
    ("locstat.stationary", "simulate_stationary_batch", "stationary.exact", _exact_steps, None),
    ("locstat.stationary", "_step_law", "stationary.step_law", None, None),
    ("locstat.stationary", "freeze", "stationary.closed_form", None, None),
    ("locstat.stationary", "stationary_mean", "stationary.closed_form", None, None),
    ("locstat.stationary", "stationary_autocov", "stationary.closed_form", None, None),
    ("locstat.stationary", "second_moment", "stationary.closed_form", None, None),
    ("locstat.stationary", "fourth_moment_integral", "stationary.closed_form", None, None),
    ("locstat.stationary", "kernel_power_integrals", "stationary.closed_form", None, None),
    ("locstat.stationary", "sigma2", "stationary.closed_form", None, None),
    ("locstat.stationary", "lyapunov_gram", "stationary.closed_form", None, None),
    ("locstat.experiments", "make_scheme", "observation.scheme",
     lambda a, r: float(r.grid.size), None),
    ("locstat.experiments", "stream", "rng.stream", None, None),
    ("locstat.cli", "stream", "rng.stream", None, None),
    ("locstat.experiments", "_localized_chunk", "experiments.chunk", None, None),
    ("locstat.experiments", "_lipschitz_chunk", "experiments.chunk", None, None),
    ("locstat.cli", "_write_csv", "cli.emit", None, None),
    ("locstat.cli", "_write_json", "cli.emit", None, None),
]

LAYERS = ("noise", "core", "dynamics", "expressions", "stationary", "observation", "rng",
          "experiments", "cli")


def _resolve(module_name: str, attr: str):
    """(owner, name, original) for a target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    head, _, tail = attr.partition(".")
    if not tail:
        return (owner, head, getattr(owner, head)) if hasattr(owner, head) else None
    inner = getattr(owner, head, None)
    if inner is None or not hasattr(inner, tail):
        return None
    if isinstance(inner, type):
        return inner, tail, inner.__dict__.get(tail, getattr(inner, tail))
    return owner, head, inner  # module binding, replaced by a _ModuleView


class Installation:
    """Wrappers installed for one tracer; ``remove`` puts every original back."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.patches = []
        self.missing = []
        for module_name, attr, span, work, aux in targets:
            found = _resolve(module_name, attr)
            if found is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner, name, original = found
            _, _, tail = attr.partition(".")
            if tail and not isinstance(owner, type):
                replacement = _ModuleView(
                    original, **{tail: tracer.wrap(getattr(original, tail), span, work, aux)}
                )
            else:
                replacement = tracer.wrap(original, span, work, aux)
            setattr(owner, name, replacement)
            self.patches.append((owner, name, original))
        present = {span.split(".")[0] for m, a, span, w, x in targets
                   if f"{m}.{a}" not in self.missing}
        self.absent_layers = [layer for layer in LAYERS if layer not in present]

    def remove(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches = []


def _has_ancestor(group: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Mask of spans with an ancestor in ``group``."""
    found = np.zeros(parent.size, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return found
        found[live] |= group[anc[live]]
        anc[live] = parent[anc[live]]


def layer_metrics(spans: dict, wall: float) -> dict:
    """Per-layer metrics of one traced campaign of ``wall`` seconds.

    Times are in seconds. A group's time counts only its outermost spans, so
    nested calls of one kind are not counted twice; self time is a span's
    time minus its children's.
    """
    names = spans["names"][spans["name"]]
    parent = spans["parent"]
    dur = spans["t1"] - spans["t0"]
    work, aux = spans["work"], spans["aux"]
    child = np.zeros(dur.size)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child

    def group(*span_names):
        return np.isin(names, span_names)

    def outermost(*span_names):
        mask = group(*span_names)
        return mask & ~_has_ancestor(mask, parent)

    def total(*span_names):
        return float(dur[outermost(*span_names)].sum())

    draw_s = total("noise.draw")
    cells = float(work[outermost("noise.draw")].sum())
    records = float(work[group("dynamics.run", "dynamics.statespace")].sum())
    chunk_s = total("experiments.chunk")
    return {
        "noise.draw_s": draw_s,
        "noise.cells": cells,
        "noise.ns_per_cell": draw_s / cells * 1e9 if cells else 0.0,
        "noise.cells_per_record": cells / records if records else 0.0,
        "noise.share": draw_s / wall,
        "core.scan_s": total("core.scan"),
        "core.scan_cells": float(work[outermost("core.scan")].sum()),
        "dynamics.plan_s": total("dynamics.plan"),
        "dynamics.plan_steps": float(work[outermost("dynamics.plan")].sum()),
        "dynamics.segments": float(aux[outermost("dynamics.plan")].sum()),
        "dynamics.run_self_s": float(self_time[group("dynamics.run")].sum()),
        "dynamics.statespace_s": total("dynamics.statespace"),
        "dynamics.propagator_calls": float(
            (group("dynamics.propagator") & _has_ancestor(group("dynamics.statespace"), parent)).sum()
        ),
        "expressions.calls": float(group("expressions.eval").sum()),
        "expressions.eval_s": total("expressions.eval", "expressions.vector",
                                    "expressions.matrix"),
        "stationary.exact_s": total("stationary.exact"),
        "stationary.exact_steps": float(work[outermost("stationary.exact")].sum()),
        "stationary.step_laws": float(group("stationary.step_law").sum()),
        "stationary.closed_form_s": total("stationary.closed_form"),
        "observation.scheme_s": total("observation.scheme"),
        "observation.nodes": float(work[outermost("observation.scheme")].sum()),
        "rng.stream_s": total("rng.stream"),
        "rng.streams": float(group("rng.stream").sum()),
        "experiments.chunks": float(group("experiments.chunk").sum()),
        "experiments.chunk_s": chunk_s,
        "experiments.chunk_self_s": float(self_time[group("experiments.chunk")].sum()),
        "experiments.serial_share": 1.0 - chunk_s / wall,
        "cli.emit_s": total("cli.emit"),
        "trace.unattributed_share": 1.0 - float(dur[~nested].sum()) / wall,
        "trace.campaign_s": wall,
    }


# Every per-layer metric the traced run reports: name -> (unit, better).
# The last five come from the untraced invocations and set-up probes that
# the traced run alternates with. experiments.parallel_eff is the median
# one-worker campaign time over (workers x the median at the workload's own
# worker count), so it is 1 on a workload timed at one worker.
PER_LAYER = {
    "noise.draw_s": ("s", "lower"),
    "noise.cells": ("count", "lower"),
    "noise.ns_per_cell": ("ns", "lower"),
    "noise.cells_per_record": ("ratio", "lower"),
    "noise.share": ("share", "lower"),
    "core.scan_s": ("s", "lower"),
    "core.scan_cells": ("count", "lower"),
    "dynamics.plan_s": ("s", "lower"),
    "dynamics.plan_steps": ("count", "lower"),
    "dynamics.segments": ("count", "lower"),
    "dynamics.run_self_s": ("s", "lower"),
    "dynamics.statespace_s": ("s", "lower"),
    "dynamics.propagator_calls": ("count", "lower"),
    "expressions.calls": ("count", "lower"),
    "expressions.eval_s": ("s", "lower"),
    "stationary.exact_s": ("s", "lower"),
    "stationary.exact_steps": ("count", "lower"),
    "stationary.step_laws": ("count", "lower"),
    "stationary.closed_form_s": ("s", "lower"),
    "observation.scheme_s": ("s", "lower"),
    "observation.nodes": ("count", "lower"),
    "rng.stream_s": ("s", "lower"),
    "rng.streams": ("count", "lower"),
    "experiments.chunks": ("count", "lower"),
    "experiments.chunk_s": ("s", "lower"),
    "experiments.chunk_self_s": ("s", "lower"),
    "experiments.serial_share": ("share", "lower"),
    "cli.emit_s": ("s", "lower"),
    "trace.unattributed_share": ("share", "lower"),
    "trace.campaign_s": ("s", "lower"),
    "experiments.parallel_eff": ("ratio", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

COUNT_METRICS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit == "count")
