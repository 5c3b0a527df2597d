"""Derive the relation instances per data set from the quiver data alone.

    python3 perfbench/relcount.py

Prints, for the A1, A2 and Kronecker data of the klrw-relations workload,
the number of instances of every local relation and the totals.  It reads
no klrwcb code: the counts follow from the vertices, the edges and the
framing dimensions, and the workload compares verify_relations' report
with them on every round.
"""

from __future__ import annotations

import wl_relations


def main():
    total = 0
    for name, vertices, edges, v, w, _ in wl_relations.DATASETS:
        counts = wl_relations.derived_counts(vertices, edges, w)
        subtotal = sum(counts.values())
        total += subtotal
        print("%s: %d instances" % (name, subtotal))
        for rel in sorted(counts):
            print("  %-28s %4d" % (rel, counts[rel]))
    print("total: %d instances per pass" % total)


if __name__ == "__main__":
    main()
