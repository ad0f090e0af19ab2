#!/usr/bin/env python3
"""Exact character tables of a small GL2 / SL2 pair.

Prints the full table of SL2 over the 4-element base ring, certifies exact
orthogonality, then restricts every GL2 irreducible to SL2 and decomposes the
restriction into SL2 irreducibles — the machinery behind the branching reports.
"""

from branchlab import chartab, grp, ring
from branchlab.verify import _fmt_cyclo


def print_table(G, table):
    cc = table.classes
    print(f"character table of {G.name}  (order {G.n}, {cc.k} classes, "
          f"values in Q(zeta_{table.n}))")
    print()
    head = ["class", "size", "order"]
    rows = []
    for j in range(cc.k):
        rows.append([f"C{j}", str(int(cc.sizes[j])),
                     str(int(cc.orders[j]))])
    cells = [[_fmt_cyclo(table.n, v) for v in row] for row in table.vals]

    # legend block, then the value grid with one column per class
    widths = [max(len(h), max(len(r[c]) for r in rows)) for c, h in enumerate(head)]
    for c, h in enumerate(head):
        line = f"{h:>6}: " + " ".join(f"{rows[j][c]:>{max(widths)}}" for j in range(cc.k))
        print(line)
    print()
    col = max(max(len(v) for row in cells for v in row), 4)
    print("        " + " ".join(f"{f'C{j}':>{col}}" for j in range(cc.k)))
    for i in range(len(table)):
        print(f"chi_{i:<3} " + " ".join(f"{v:>{col}}" for v in cells[i]))
    print()


def _sum_text(mults):
    """sum m_i chi_i over the nonzero multiplicities of one row."""
    return " + ".join(f"{m}*chi_{i}" if m > 1 else f"chi_{i}" for i, m in enumerate(mults) if m)


def main():
    spec = ring.make_ring("z2", r=2)
    G = grp.build_gl2(spec)
    S = grp.sl2_subgroup(G)
    tabG = chartab.dixon_table(G)
    tabS = chartab.dixon_table(S)

    print_table(S, tabS)

    for label, tab in (("GL2", tabG), ("SL2", tabS)):
        chartab.verify_orthogonality_exact(tab)
        total = sum(d**2 for d in tab.degree.tolist())
        print(f"{label}: rows and columns exactly orthogonal; "
              f"sum of squared degrees = {total} = group order")
    print()

    # the regular character decomposes as sum d_i * chi_i
    reg = chartab.regular_character(S)
    mults = chartab.decompose(reg, tabS)
    assert (mults == tabS.degree).all()
    print(f"regular character of SL2 = {_sum_text(mults)}")
    print()

    # every GL2 irreducible at once: one restriction, one decomposition
    print("restriction of each GL2 irreducible to SL2:")
    degG, degS = tabG.degree, tabS.degree
    for i, row in enumerate(chartab.decompose(chartab.restrict(tabG, S), tabS)):
        dims = "+".join(str(degS[j]) for j in row.nonzero()[0] for _ in range(row[j]))
        print(f"  chi_{i:<3} (dim {degG[i]})  ->  {_sum_text(row):<24} dims {dims}")


if __name__ == "__main__":
    main()
