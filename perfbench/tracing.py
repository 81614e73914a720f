"""In-memory span tracer that wraps dirtycast's public functions from outside.

`Tracer.install(namespaces)` rebinds every public function defined in a
dirtycast module, in every namespace that holds it (`minimize_scalar` lives
in `core`, `gaussian`, `verify` and the package), to a wrapper that records
one span per call: (span id, parent span id, run id, name, start ns, end ns).
Span names are "<defining module>.<function>", so a call is named the same
whichever namespace it went through.  The two rho objectives are called
millions of times per verify pass; they get a counter, not a span, because
timing each call would dominate the trace.  `uninstall` restores the
original bindings.  Spans stay in memory until `write_csv` at the end of a
run.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
import types
from collections import Counter, defaultdict

# Called far too often to time each call: counted under the given key.
COUNTED_ONLY = {
    "gaussian.upper_i_at_rho": "gaussian.objective.evals",
    "gaussian.upper_ii_at_rho": "gaussian.objective.evals",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, self.run_id, name, start, end))

    def _timed(self, fn, name):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        counters = self.counters
        before = after = None
        if name == "core.minimize_scalar":
            # count objective evaluations: grid points plus golden-section steps
            def before(args, kwargs):
                f = args[0] if args else kwargs.pop("f")

                def counted(x):
                    counters["core.minimize_scalar.evals"] += 1
                    return f(x)

                return (counted,) + args[1:], kwargs

        elif name == "simulate.simulate_scheme":

            def after(args, kwargs, result):
                run = args[1] if len(args) > 1 else kwargs["run"]
                if run.rate is not None:
                    bits = run.trials * run.codewords * run.n
                    counters["simulate.decode_trials"] += run.trials
                    counters["simulate.codebook_bytes"] += bits  # one uint8 per bit
                    counters["simulate.codeword_bits_compared"] += 2 * bits  # two users

        elif name == "figures.render_csv":

            def after(args, kwargs, result):
                counters["figures.csv_bytes"] += len(result)

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span_name = name
            if name == "figures.figure_table":
                span_name = f"{name}.{args[0] if args else kwargs['name']}"
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, self.run_id, span_name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, key):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, namespaces):
        """Rebind every public dirtycast function in each namespace."""
        wrappers = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith("dirtycast.")
                ):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
                    if name in COUNTED_ONLY:
                        wrappers[obj] = self._counted(obj, COUNTED_ONLY[name])
                    else:
                        wrappers[obj] = self._timed(obj, name)
                self._restore.append((ns, attr, obj))
                setattr(ns, attr, wrappers[obj])

    def uninstall(self):
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    def write_csv(self, path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("span_id,parent_id,run_id,name,start_ns,end_ns\n")
            for s in self.spans:
                fh.write("%d,%d,%d,%s,%d,%d\n" % s)


def summarize(spans):
    """Per-name call count and inclusive seconds, plus self seconds per
    module (the name's first component).  Self time is a span's duration
    minus the durations of its direct children; children of one span never
    overlap because traced units run on one thread."""
    child_ns = defaultdict(int)
    for sid, parent, _run, _name, start, end in spans:
        if parent:
            child_ns[parent] += end - start
    calls, total_ns, module_self_ns = Counter(), Counter(), Counter()
    for sid, _parent, _run, name, start, end in spans:
        calls[name] += 1
        total_ns[name] += end - start
        module_self_ns[name.split(".", 1)[0]] += end - start - child_ns.get(sid, 0)
    return {
        "calls": dict(calls),
        "total_s": {k: v * 1e-9 for k, v in total_ns.items()},
        "module_self_s": {k: v * 1e-9 for k, v in module_self_ns.items()},
    }


def group_seconds(spans, names):
    """Seconds spent in calls to any of `names`, counting a call nested in
    another call of the group only once (through its outermost ancestor)."""
    names = frozenset(names)
    parent_of = {s[0]: s[1] for s in spans}
    in_group = {s[0] for s in spans if s[3] in names}
    total = 0
    for sid, parent, _run, name, start, end in spans:
        if sid not in in_group:
            continue
        while parent and parent not in in_group:
            parent = parent_of.get(parent, 0)
        if not parent:
            total += end - start
    return total * 1e-9
