"""Layer spans recorded from outside the program.

A Tracer replaces the public functions of each edarp layer with a
wrapper that records a span (name, start, end, parent) and per-name
totals: calls, self time (wall minus the time covered by child spans)
and raised exceptions. Spans stay in memory; the first
SPAN_CAP are kept in full and written out at the end, every span
counts toward the totals.

`from .x import f` binds f into the importing module, so a function is
patched at every place it can be looked up: each edarp module namespace
and the package namespace. Methods are patched once, on their class.
"""

import functools
import json
import sys
import time

# (span name, kind, result hook). The span name is <module>.<qualname>;
# kind "span" times the call, "count" only counts it (for functions so
# small that a span would dwarf them). A hook adds to the `ok`/`items`
# counters of the span from the call's result.
LAYERS = [
    ("cli.main", "span", None),
    ("instance.load", "span", None),
    ("instance.normalize_features", "span", None),
    ("instance.generate_instance", "span", None),
    ("environment.replay", "span", None),
    ("environment.Env.mask", "span", None),
    ("environment.Env.step", "span", None),
    ("environment.EpisodeState.clone", "count", None),
    ("oracle.exact_solve", "span", "limit_hit"),
    ("greedy.greedy_solve", "span", None),
    ("routes.RouteCtx.simulate", "span", "not_none"),
    ("routes.RouteCtx.scan_insertions", "span", "length"),
    ("routes.remove_requests", "span", None),
    ("routes.prune_chargers", "span", None),
    ("alns.alns_solve", "span", None),
    ("alns.worst_removal", "span", None),
    ("alns.shaw_removal", "span", None),
    ("alns.random_insert", "span", None),
    ("alns.regret_insert", "span", None),
    ("alns.rtr_accept", "span", "truthy"),
    ("policy.Policy.encode", "span", None),
    ("policy.Policy.decode_step", "span", None),
    ("policy.rollout_episode", "span", None),
    ("policy.multistart_rollout", "span", None),
    ("policy.load_policy", "span", None),
    ("autodiff.Tape.record", "count", None),
    ("autodiff.Tape.backward", "span", None),
    ("autodiff.matmul", "span", None),
    ("autodiff.masked_softmax", "span", None),
    ("autodiff.layer_norm", "span", None),
    ("training.train", "span", None),
    ("training.reinforce_update", "span", "skipped"),
    ("training.Adam.step", "span", None),
    ("training.validate", "span", None),
]

SPAN_CAP = 100_000

HOOKS = {
    "not_none": lambda res: (res is not None, 0),
    "length": lambda res: (False, len(res) if res else 0),
    "truthy": lambda res: (bool(res), 0),
    "limit_hit": lambda res: (not res[1], 0),
    "skipped": lambda res: (bool(res.skipped), 0),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "edarp" or name.startswith("edarp."))]


def patch_everywhere(target, replacement):
    """Bind `replacement` wherever an edarp module namespace holds `target`.

    Returns the undo list of (namespace owner, attribute) pairs.
    """
    undo = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, replacement)
                undo.append((mod, attr))
    return undo


def find_bindings(target):
    """Module namespaces that still hold `target` (empty when fully patched)."""
    return [f"{mod.__name__}.{attr}" for mod in _package_modules()
            for attr, value in vars(mod).items() if value is target]


def resolve(span_name):
    """(owner, attribute, function) for a span name like 'environment.Env.mask'."""
    parts = span_name.split(".")
    owner = sys.modules[f"edarp.{parts[0]}"]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], vars(owner)[parts[-1]]


class SpanStats:
    __slots__ = ("calls", "self", "errors", "ok", "items")

    def __init__(self):
        self.calls = 0
        self.self = 0.0
        self.errors = 0
        self.ok = 0
        self.items = 0


class Tracer:
    """Install with `with Tracer() as t:`; read `t.stats` afterwards."""

    def __init__(self):
        self.stats = {name: SpanStats() for name, _, _ in LAYERS}
        self.spans = []          # (id, parent id or -1, name, start, end)
        self.dropped = 0
        self.root_wall = 0.0     # wall covered by spans without a parent
        self._stack = []         # open spans: [id, child seconds]
        self._next_id = 0
        self._undo = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, fn, name, hook):
        st = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st.calls += 1
                st.self += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_wall += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, stack[-1][0] if stack else -1, name, t0, t1))
                else:
                    self.dropped += 1
            if hook is not None:
                ok, items = hook(res)
                st.ok += ok
                st.items += items
            return res
        return wrapper

    def _count(self, fn, name):
        st = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / remove ---------------------------------------------------------

    def install(self):
        for name, kind, hook in LAYERS:
            owner, attr, fn = resolve(name)
            wrapped = (self._span(fn, name, HOOKS[hook] if hook else None)
                       if kind == "span" else self._count(fn, name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, fn))
            else:
                self._undo.extend((mod, a, fn)
                                  for mod, a in patch_everywhere(fn, wrapped))
            missed = find_bindings(fn)
            if missed:
                raise RuntimeError(f"{name} still bound unwrapped at {missed}")
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------------

    def self_seconds(self):
        return sum(st.self for st in self.stats.values())

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


# -- per-layer metrics ------------------------------------------------------------

# BENCHMARK.json's per_layer list names the metrics and gives their units
# and directions. A metric named <span>.calls or <span>.self_s reads that
# stat of the span; the others are read as given here. Stats: ok = hook
# successes; ok_ratio = hook successes / calls; items_per_call = hook
# items / calls; error_ratio = raised exceptions / calls.
DERIVED = {
    "routes.RouteCtx.simulate.feasible_ratio": ("routes.RouteCtx.simulate", "ok_ratio"),
    "routes.RouteCtx.scan_insertions.cands_per_call":
        ("routes.RouteCtx.scan_insertions", "items_per_call"),
    "alns.accept_ratio": ("alns.rtr_accept", "ok_ratio"),
    "alns.replay_fail_ratio": ("environment.replay", "error_ratio"),
    "oracle.exact_solve.limit_hits": ("oracle.exact_solve", "ok"),
    "training.reinforce_update.skipped": ("training.reinforce_update", "ok"),
}

# Trace bookkeeping, reported next to the layer metrics by run.py.
TRACE_METRICS = ("trace.overhead", "trace.uncovered_share")


def metric_source(name):
    """(span, stat) that the per-layer metric `name` reads."""
    if name in DERIVED:
        return DERIVED[name]
    span, _, stat = name.rpartition(".")
    if stat not in ("calls", "self_s"):
        raise KeyError(f"per-layer metric {name!r} has no source")
    return span, stat


# Spans that must record calls on a workload: the layers whose metrics
# README.md maps to an end-to-end metric of that workload. A zero count
# means a wrapper missed a binding site or the workload stopped
# exercising the layer; either way the traced run fails.
EXPECTED = {
    "alns-n40": ["cli.main", "instance.load", "instance.generate_instance",
                 "greedy.greedy_solve", "alns.alns_solve",
                 "routes.RouteCtx.simulate", "routes.RouteCtx.scan_insertions",
                 "routes.remove_requests", "routes.prune_chargers",
                 "alns.worst_removal", "alns.shaw_removal",
                 "alns.random_insert", "alns.regret_insert", "alns.rtr_accept",
                 "environment.replay", "environment.Env.mask",
                 "environment.Env.step"],
    "train-n10": ["cli.main", "instance.generate_instance",
                  "instance.normalize_features", "training.train",
                  "training.reinforce_update", "training.Adam.step",
                  "training.validate", "policy.Policy.encode",
                  "policy.Policy.decode_step", "policy.rollout_episode",
                  "autodiff.Tape.backward", "autodiff.Tape.record",
                  "autodiff.matmul", "autodiff.masked_softmax",
                  "autodiff.layer_norm", "environment.Env.mask",
                  "environment.Env.step"],
    "eval-n40": ["cli.main", "instance.load", "instance.generate_instance",
                 "instance.normalize_features", "policy.load_policy",
                 "policy.Policy.encode", "policy.Policy.decode_step",
                 "policy.rollout_episode", "policy.multistart_rollout",
                 "autodiff.matmul", "environment.Env.mask",
                 "environment.Env.step"],
    "exact-n5": ["cli.main", "instance.load", "instance.generate_instance",
                 "greedy.greedy_solve", "oracle.exact_solve",
                 "environment.Env.mask", "environment.Env.step",
                 "environment.EpisodeState.clone"],
}


def layer_value(stats, name):
    span, stat = metric_source(name)
    st = stats[span]
    if stat == "calls":
        return st.calls
    if stat == "self_s":
        return st.self
    if stat == "ok":
        return st.ok
    base = {"ok_ratio": st.ok, "items_per_call": st.items,
            "error_ratio": st.errors}[stat]
    return base / st.calls if st.calls else 0.0
