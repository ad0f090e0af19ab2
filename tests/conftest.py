"""Shared fixtures.

Group tables and full verification reports are built once per session (a
level-4 report takes a few seconds, its character tables most of that) and
handed out through getter fixtures keyed by (kind, r); character tables are
computed once per group object and held here.
"""

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
