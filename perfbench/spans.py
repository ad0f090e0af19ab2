"""Outside-in span recorder for branchlab.

The recorder replaces public functions and methods of branchlab's modules with
wrappers, in the benchmark's own process, and records one span per call: name,
start, end, parent span, the process's peak RSS at entry and exit, and an
optional count taken from the call's result.  Nothing inside branchlab changes;
a call between two functions of one module goes through its module globals, so
it is seen too.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import resource
import time

# (module, attribute path, count taken from (args, result) or None).  The
# count becomes the span's `count` field: classes found by Dixon, elements of
# a subgroup, constituents found by a decomposition.
TARGETS = (
    ("ring", "sqrt1_count", None),
    ("mat", "companion_form", None),
    ("mat", "all_cyclic_matrices", None),
    ("grp", "build_gl2", None),
    ("grp", "sl2_subgroup", None),
    ("grp", "subgroup", lambda args, out: out.n),
    ("grp", "ConjClasses.__init__", None),
    ("grp", "GroupTable.mul", None),
    ("grp", "GroupTable.entries", None),
    ("grp", "GroupTable.conj_perm", None),
    ("chartab", "dixon_table", lambda args, out: out.k),
    ("chartab", "inner", None),
    ("chartab", "decompose", lambda args, out: len(out)),
    ("chartab", "restrict", None),
    ("chartab", "induce", None),
    ("clifford", "make_psiA", None),
    ("clifford", "inertia", None),
    ("clifford", "phi_set", None),
    ("clifford", "mackey_restriction", None),
    ("predict", "n_r", None),
    ("predict", "predict_branching", None),
    ("verify", "find_regular", None),
    ("verify", "verify_branching", None),
)

FIELDS = ("name", "start", "end", "parent", "rss0_mb", "rss1_mb", "count")
NAME, START, END, PARENT, RSS0, RSS1, COUNT = range(len(FIELDS))


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Span list plus the patches that feed it; single-threaded use only."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, _maxrss_mb(), 0.0, 0]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                span[RSS1] = _maxrss_mb()
            if count is not None:
                span[COUNT] = count(args, out)
            return out

        return wrapper

    def install(self, modules: dict):
        """Patch every target; modules maps a short name to the imported module."""
        for mod_name, attr, count in TARGETS:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[leaf]
            self._patched.append((owner, leaf, fn))
            name = f"{mod_name}.{attr.removesuffix('.__init__')}"
            setattr(owner, leaf, self._wrap(name, fn, count))

    def uninstall(self):
        for owner, leaf, fn in reversed(self._patched):
            setattr(owner, leaf, fn)
        self._patched.clear()


def totals(spans: list[list]) -> dict:
    """Per span name: calls, inclusive s, self_s, rss_rise_mb, count sum.

    Inclusive time and RSS rise are summed over the outermost span of each
    name only, so a name that calls itself is not counted twice.  Self time
    is a span's duration minus its children's durations; spans nest and never
    overlap, because the program runs one job at a time on one thread.
    """
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child_time[sp[PARENT]] += sp[END] - sp[START]
    out: dict = {}
    for i, sp in enumerate(spans):
        name = sp[NAME]
        t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rss_rise_mb": 0.0, "count": 0})
        dur = sp[END] - sp[START]
        t["calls"] += 1
        t["self_s"] += dur - child_time[i]
        t["count"] += sp[COUNT]
        p = sp[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            t["s"] += dur
            t["rss_rise_mb"] += sp[RSS1] - sp[RSS0]
    return out


def children_named(spans: list[list], parent: int, name: str) -> list[int]:
    """Indices of the spans called `name` whose nearest recorded parent is `parent`."""
    return [i for i, sp in enumerate(spans) if sp[PARENT] == parent and sp[NAME] == name]
