"""In-memory spans around cvwl's public functions, installed from outside.

Each target function is replaced by a wrapper in every ``cvwl`` module that
holds a reference to it (``cvwl.optimizer.enumerate_bipartitions``,
``cvwl.cli.optimize_gains``, the package namespace, ...), so calls are seen
whichever module makes them.  ``GaussianState.__init__`` is wrapped on the
class.  A span is ``(name, start, end, parent_id, call_id, tag)``; spans stay
in memory until :meth:`Tracer.write`.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import inspect
import resource
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import percentile

# (module, attribute) pairs; the span name is "<module tail>.<attribute>"
TARGETS = (
    ("cvwl.partitions", "genuine_bound"),
    ("cvwl.partitions", "enumerate_bipartitions"),
    ("cvwl.optimizer", "optimize_gains"),
    ("cvwl.optimizer", "sweep"),
    ("cvwl.optimizer", "build_state"),
    ("cvwl.networks", "execute"),
    ("cvwl.states", "apply_loss"),
    ("cvwl.states", "apply_beam_splitter"),
    ("cvwl.states", "second_moments"),
    ("cvwl.states", "quadrature_variances"),
    ("cvwl.witnesses", "evaluate"),
    ("cvwl.cli", "main"),
)
GAUSSIAN_INIT = "states.GaussianState"
SPAN_NAMES = tuple(f"{m.split('.')[-1]}.{f}" for m, f in TARGETS) + (GAUSSIAN_INIT,)

# criteria whose "entanglement" objective minimizes over bipartitions on the grid
BIPARTITION_CRITERIA = ("c5", "c6", "c8")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def n_bipartitions(n: int) -> int:
    return (1 << (n - 1)) - 1


def grid_points(k: int, step: float | None) -> int:
    """Points of the optimizer's cold grid over [-2, 2]^k (seed semantics:
    step 0.01 for one or two parameters, 0.05 for three)."""
    if k == 0:
        return 0
    if step is None:
        step = 0.01 if k <= 2 else 0.05
    return len(np.arange(-2.0, 2.0 + step / 2.0, step)) ** k


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: defaultdict = defaultdict(float)
        self.errors: defaultdict = defaultdict(int)
        self._stack: list = []
        self._next_id = 0
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self):
        import cvwl  # noqa: F401  (loads every submodule)
        import cvwl.cli  # noqa: F401

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cvwl" or name.startswith("cvwl."))]
        for mod_name, attr in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            name = f"{mod_name.split('.')[-1]}.{attr}"
            wrapper = self._wrap(name, original, self._hook(name, original))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        cls = sys.modules["cvwl.states"].GaussianState
        original_init = cls.__init__
        self._undo.append((cls, "__init__", original_init))
        cls.__init__ = self._wrap(GAUSSIAN_INIT, original_init, None)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _wrap(self, name, fn, hook):
        """`hook(arguments)` runs before the call and returns a function of
        the result that updates counters and returns the span's tag."""
        signature = inspect.signature(fn) if hook is not None else None
        stack, spans, errors = self._stack, self.spans, self.errors
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            call_id = self._next_id
            self._next_id += 1
            finish = hook(signature.bind(*args, **kwargs).arguments) if hook else None
            stack.append(call_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
            spans.append((name, start, end, parent, call_id, finish(result) if finish else None))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, name, original):
        counters = self.counters
        if name == "partitions.genuine_bound":
            def hook(args):
                n = args.get("n") or args["gains"].n_modes
                counters["partitions.bipartitions_scanned"] += n_bipartitions(n)
                return lambda result: f"n{n}"
            return hook
        if name == "partitions.enumerate_bipartitions":
            info = getattr(original, "cache_info", None)

            def hook(args):
                misses, rss = (info().misses if info else None), _maxrss_mb()

                def finish(result):
                    if info is not None and info().misses == misses:
                        return f"hit n{args['n']}"
                    counters["partitions.enumerate_rss_mb"] += _maxrss_mb() - rss
                    return f"miss n{args['n']}"
                return finish
            return hook
        if name == "optimizer.optimize_gains":
            def hook(args):
                cold = args.get("init") is None

                def finish(result):
                    k = len(result.params)
                    points = grid_points(k, args.get("grid_step")) if cold else 0
                    counters["optimizer.grid_points"] += points
                    cid = str(args["criterion"]).strip().lower()
                    if (cid in BIPARTITION_CRITERIA
                            and args.get("objective", "entanglement") == "entanglement"):
                        counters["optimizer.grid_bipartition_evals"] += (
                            points * n_bipartitions(args["state"].n_modes))
                    if k:
                        counters["optimizer.nm_iters"] += result.iterations - points
                    return f"{'cold' if cold else 'warm'} {cid} n{args['state'].n_modes}"
                return finish
            return hook
        if name == "cli.main":
            return lambda args: lambda result: " ".join(args.get("argv") or ())
        return None

    # -- summaries ------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        child = defaultdict(float)
        for name, start, end, parent, call_id, tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child.get(call_id, 0.0)
                for name, start, end, parent, call_id, tag in self.spans]

    def write(self, path):
        names = {n: i for i, n in enumerate(sorted({s[0] for s in self.spans}))}
        with open(path, "w") as fh:
            fh.write("# name start_s end_s parent_id call_id tag\n")
            fh.write("# names " + " ".join(f"{i}={n}" for n, i in names.items()) + "\n")
            for name, start, end, parent, call_id, tag in self.spans:
                fh.write(f"{names[name]} {start:.9f} {end:.9f} {parent} {call_id} {tag or '-'}\n")


def layer_metrics(tracer: Tracer, wall_s: float):
    """Per-layer metrics and the sample count behind each percentile."""
    selfs = tracer.self_times()
    by_name = defaultdict(list)  # name -> [(duration, self, tag, parent)]
    for span, self_s in zip(tracer.spans, selfs):
        name, start, end, parent, call_id, tag = span
        by_name[name].append((end - start, self_s, tag, parent))
    m, samples = {}, {}

    def put(key, value, unit, n=None):
        m[key] = (float(value), unit)
        if n is not None:
            samples[key] = n

    gb = by_name["partitions.genuine_bound"]
    gb_ms = [d * 1e3 for d, _, _, _ in gb]
    put("partitions.genuine_bound.calls", len(gb), "count")
    put("partitions.genuine_bound.self_s", sum(s for _, s, _, _ in gb), "s")
    put("partitions.genuine_bound.p50_ms", percentile(gb_ms, 50), "ms", len(gb))
    put("partitions.genuine_bound.p90_ms", percentile(gb_ms, 90), "ms", len(gb))
    put("partitions.bipartitions_scanned", tracer.counters["partitions.bipartitions_scanned"], "count")
    en = by_name["partitions.enumerate_bipartitions"]
    put("partitions.enumerate_bipartitions.cold_s", sum(d for d, _, t, _ in en if t.startswith("miss")), "s")
    put("partitions.enumerate_bipartitions.hit_frac",
        sum(t.startswith("hit") for _, _, t, _ in en) / len(en) if en else 0.0, "ratio", len(en))
    put("partitions.enumerate_rss_mb", tracer.counters["partitions.enumerate_rss_mb"], "MB")

    og = by_name["optimizer.optimize_gains"]
    for kind in ("cold", "warm"):
        rows = [(d, s) for d, s, t, _ in og if t.startswith(kind)]
        put(f"optimizer.optimize_gains.{kind}_calls", len(rows), "count")
        put(f"optimizer.optimize_gains.{kind}.self_s", sum(s for _, s in rows), "s")
        put(f"optimizer.optimize_gains.{kind}.p50_ms", percentile([d * 1e3 for d, _ in rows], 50),
            "ms", len(rows))
    for key in ("optimizer.grid_points", "optimizer.grid_bipartition_evals", "optimizer.nm_iters"):
        put(key, tracer.counters[key], "count")
    put("optimizer.sweep.self_s", sum(s for _, s, _, _ in by_name["optimizer.sweep"]), "s")
    put("optimizer.build_state.calls", len(by_name["optimizer.build_state"]), "count")

    ex = by_name["networks.execute"]
    put("networks.execute.calls", len(ex), "count")
    put("networks.execute.self_s", sum(s for _, s, _, _ in ex), "s")
    put("networks.execute.p50_us", percentile([d * 1e6 for d, _, _, _ in ex], 50), "us", len(ex))

    gs = by_name[GAUSSIAN_INIT]
    put("states.GaussianState.constructions", len(gs), "count")
    put("states.GaussianState.init_s", sum(d for d, _, _, _ in gs), "s")
    for fn in ("apply_loss", "apply_beam_splitter"):
        rows = by_name[f"states.{fn}"]
        put(f"states.{fn}.calls", len(rows), "count")
        put(f"states.{fn}.self_s", sum(s for _, s, _, _ in rows), "s")
    put("states.second_moments.calls", len(by_name["states.second_moments"]), "count")
    put("states.quadrature_variances.calls", len(by_name["states.quadrature_variances"]), "count")

    ev = by_name["witnesses.evaluate"]
    ev_us = [d * 1e6 for d, _, _, _ in ev]
    put("witnesses.evaluate.calls", len(ev), "count")
    put("witnesses.evaluate.self_s", sum(s for _, s, _, _ in ev), "s")
    put("witnesses.evaluate.p50_us", percentile(ev_us, 50), "us", len(ev))
    put("witnesses.evaluate.p90_us", percentile(ev_us, 90), "us", len(ev))

    cm = by_name["cli.main"]
    put("cli.main.calls", len(cm), "count")
    put("cli.main.self_s", sum(s for _, s, _, _ in cm), "s")

    for name in SPAN_NAMES:
        put(f"{name}.errors", tracer.errors[name], "count")

    top = sum(d for rows in by_name.values() for d, _, _, parent in rows if parent < 0)
    put("trace.top_level_coverage", top / wall_s if wall_s > 0 else 0.0, "ratio")
    return m, samples, breakdown(by_name)


def breakdown(by_name):
    """Calls and median duration per span tag (mode count, criterion, CLI
    arguments) of the functions whose cost depends on them."""
    out = {}
    for name in ("partitions.genuine_bound", "partitions.enumerate_bipartitions",
                 "optimizer.optimize_gains", "cli.main"):
        groups = defaultdict(list)
        for d, _, tag, _ in by_name[name]:
            groups[tag].append(d * 1e3)
        out[name] = {tag: {"calls": len(v), "p50_ms": percentile(v, 50)}
                     for tag, v in sorted(groups.items())}
    return out
