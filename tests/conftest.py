"""Shared fixtures.

Group tables and full verification reports are built once per session (a
level-4 report takes a few seconds, its character tables most of that) and
handed out through getter fixtures keyed by (kind, r); character tables are
computed once per group object and held here.
"""

import numpy as np
import pytest

from branchlab import chartab, grp, ring, verify

acceptance_lines = []


@pytest.fixture(scope="session")
def criterion_report():
    """Collector for the acceptance criteria's one-line outcomes."""

    def report(line):
        acceptance_lines.append(line)
        print(line)

    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def groups():
    cache = {}

    def get(kind, r):
        key = (kind, r)
        if key not in cache:
            cache[key] = grp.build_gl2(ring.make_ring(kind, r=r))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def chartabs():
    cache = {}

    def get(G):
        if G not in cache:
            cache[G] = chartab.dixon_table(G)
        return cache[G]

    return get


@pytest.fixture(scope="session")
def reports():
    cache = {}

    def get(kind, r, **kw):
        key = (kind, r, tuple(sorted(kw.items())))
        if key not in cache:
            cache[key] = verify.verify_branching(ring.make_ring(kind, r=r), **kw)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def greedy_reference():
    """Greedy generators with every closure recomputed from the identity."""

    def gens(H):
        out = []
        while not (known := grp._closure_mask(H, out)).all():
            out.append(int(np.flatnonzero(~known)[0]))
        return out

    return gens


@pytest.fixture
def built_tables(monkeypatch):
    """Every table that grp.build_gl2, grp.subgroup or grp.preimage returns
    during the test, in call order."""
    out = []
    for ctor in ("build_gl2", "subgroup", "preimage"):

        def spy(*args, _real=getattr(grp, ctor), **kwargs):
            out.append(_real(*args, **kwargs))
            return out[-1]

        monkeypatch.setattr(grp, ctor, spy)
    return out
