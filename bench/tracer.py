"""Span and call-count tracer for genprob, installed from outside the package.

``Tracer.install()`` replaces the public entry points of each genprob module
with wrappers.  Modules bind names with ``from .x import y``, so a function
is replaced at every place that holds it: each ``genprob`` module namespace
and each class dictionary.  ``Tracer.uninstall()`` puts the originals back.

A span wrapper records ``[name, start, end, parent, child_time]`` on entry
and exit; the parent is the innermost open span of the same thread.  A
span's self time is its duration minus the time its child spans cover.
Spans stay in memory until ``summary()`` folds them into per-name totals.

A count wrapper only counts calls.  It is used on functions called millions
of times (tuple ``mul``, ``Permutation.__mul__``, ``index_of``), where a span
per call would cost more than the call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager

# every genprob module; the CLI is last because it imports the others
MODULES = (
    "genprob.perm", "genprob.group", "genprob.catalog", "genprob.classes",
    "genprob.probability", "genprob.graphs", "genprob.wreath",
    "genprob.tower", "genprob.util", "genprob.cli",
)

# span name -> traced callables, as "module:qualname"
SPANS = {
    "group.chain": ["genprob.group:FiniteGroup.__init__"],
    "group.conjugacy": [
        "genprob.group:FiniteGroup.conjugacy_classes",
        "genprob.group:FiniteGroup._conjugacy_data",
    ],
    "group.normal_closure": ["genprob.group:FiniteGroup._normal_closure_tuples"],
    "group.series": [
        "genprob.group:FiniteGroup.derived_series",
        "genprob.group:FiniteGroup.lower_central_series",
        "genprob.group:FiniteGroup.upper_central_series",
    ],
    "probability.omega": ["genprob.probability:omega"],
    "probability.prob_group": ["genprob.probability:prob_group"],
    "probability.omega_global": ["genprob.probability:omega_global"],
    "probability.identities": ["genprob.probability:verify_identities"],
    "probability.oracle": [
        "genprob.probability:soluble_radical",
        "genprob.probability:hypercenter",
        "genprob.probability:center",
    ],
    "graphs.diameters": ["genprob.graphs:components_and_diameters"],
    "wreath.multiply": ["genprob.wreath:WreathLevel.multiply"],
    "wreath.verify": ["genprob.wreath:verify_lemma_mechanism"],
    "wreath.alpha_beta": ["genprob.wreath:verify_alpha_beta_generation"],
    "tower.build": ["genprob.tower:dihedral_tower"],
    "tower.sequence": ["genprob.tower:monotonicity_report"],
    "tower.verdict": ["genprob.tower:positivity_verdict"],
    "catalog.load": ["genprob.catalog:load"],
}

# counter name -> counted callable
COUNTS = {
    "perm.mul_calls": "genprob.perm:mul",
    "perm.Permutation.mul_calls": "genprob.perm:Permutation.__mul__",
    "group.index_of_calls": "genprob.group:FiniteGroup.index_of",
}

# traced with their own wrappers below, which also count what they produced
PAIR_TEST = "genprob.classes:pair_in_group"          # span classes.pair
ENUMERATE = "genprob.group:FiniteGroup.element_tuples"  # span group.enumerate
BUILD_GRAPH = "genprob.graphs:build_graph"            # span graphs.build

COUNTER_NAMES = (*COUNTS, "classes.pair_cache_misses")


def resolve(target: str):
    """(holder, attribute name) for a "module:qualname" target."""
    module_name, qualname = target.split(":")
    holder = importlib.import_module(module_name)
    *owners, attr = qualname.split(".")
    for owner in owners:
        holder = getattr(holder, owner)
    return holder, attr


def genprob_namespaces():
    """(owner, namespace) for every place genprob code looks a traced name
    up: each genprob module and each class defined in one."""
    for name, module in sorted(sys.modules.items()):
        if name != "genprob" and not name.startswith("genprob."):
            continue
        yield module, vars(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value, vars(value)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        # itertools.count advances atomically under the interpreter lock
        self._counters = {name: itertools.count() for name in COUNTER_NAMES}
        self._reads = 0
        # sizes of built class graphs, added up on the thread that builds them
        self._sizes = {"graphs.vertices": 0, "graphs.edges": 0}
        self.originals: list[object] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, 0.0]
        self.spans.append(record)
        stack.append(record)
        return record

    def _exit(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._local.stack.pop()
        parent = record[3]
        if parent is not None:
            parent[4] += record[2] - record[1]

    @contextmanager
    def span(self, name: str):
        record = self._enter(name)
        try:
            yield record
        finally:
            self._exit(record)

    def counts(self) -> dict[str, int]:
        # next() on an itertools.count returns the number of earlier next()
        # calls, which includes the earlier reads made here
        calls = {}
        for name, counter in self._counters.items():
            calls[name] = next(counter) - self._reads
        self._reads += 1
        return {**calls, **self._sizes}

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; plus
        the call counters."""
        spans: dict[str, dict] = {}
        for name, start, end, _, child in self.spans:
            entry = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child
        return {"spans": spans, "counts": self.counts()}

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(record)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counter = self._counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)
        return wrapper

    def _pair_wrapper(self, fn):
        """Span classes.pair; a miss is a call during which the pair cache grew."""
        enter, exit_ = self._enter, self._exit
        misses = self._counters["classes.pair_cache_misses"]

        @functools.wraps(fn)
        def wrapper(C, G, xt, yt):
            before = len(G.pair_cache.get(C.name, ()))
            record = enter("classes.pair")
            try:
                result = fn(C, G, xt, yt)
            finally:
                exit_(record)
            if len(G.pair_cache.get(C.name, ())) > before:
                next(misses)
            return result
        return wrapper

    def _enumerate_wrapper(self, fn):
        """Span group.enumerate only for the call that materializes; the
        many later calls return the stored list and are not traced."""
        span = self.span

        @functools.wraps(fn)
        def wrapper(group):
            if group.is_materialized:
                return fn(group)
            with span("group.enumerate"):
                return fn(group)
        return wrapper

    def _build_graph_wrapper(self, fn):
        span, sizes = self.span, self._sizes

        @functools.wraps(fn)
        def wrapper(C, G):
            with span("graphs.build"):
                graph = fn(C, G)
            sizes["graphs.vertices"] += len(graph.vertices.members)
            sizes["graphs.edges"] += graph.edge_count()
            return graph
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module in MODULES:
            importlib.import_module(module)
        plan = [(PAIR_TEST, self._pair_wrapper),
                (ENUMERATE, self._enumerate_wrapper),
                (BUILD_GRAPH, self._build_graph_wrapper)]
        for name, targets in SPANS.items():
            plan += [(t, functools.partial(self._span_wrapper, name)) for t in targets]
        plan += [(t, functools.partial(self._count_wrapper, name))
                 for name, t in COUNTS.items()]

        wrappers = {}  # id(original) -> (original, wrapper)
        for target, make in plan:
            holder, attr = resolve(target)
            original = vars(holder)[attr]
            wrappers[id(original)] = (original, make(original))
        self.originals = [original for original, _ in wrappers.values()]
        for owner, namespace in genprob_namespaces():
            for attr, value in list(namespace.items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(owner, attr, pair[1])
                    self._undo.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
