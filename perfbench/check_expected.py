#!/usr/bin/env python3
"""Cross-checks perfbench/expected/discover_paper.tsv against results/.

Every discover_paper task that also appears in a paper harness table —
the synthetic pairs (results/fig5_synthetic_ida.txt,
results/fig6_synthetic_rbfs.txt), the Inventory lambda tasks
(results/fig9_semantic.txt) and the Fig. 1 flights restructurings at two
carriers and two routes (results/fig1_restructuring.txt, RBFS) — must agree
with the table. The harness ran with a larger state budget, so a table
count within the benchmark's budget must equal the expected count, and a
count beyond it (or a ">N*" cutoff) must be a budget stop.

Run from the repository root: python3 perfbench/check_expected.py
Exits non-zero on any disagreement.
"""

import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def panels(path):
    """Yields (panel title, header cells, row cells) for a results table."""
    title, header = None, None
    with open(os.path.join(ROOT, "results", path)) as f:
        for line in f:
            cells = line.split()
            if line.startswith("## "):
                title, header = line[3:].strip(), None
            elif cells and header is None and title is not None:
                header = cells
            elif cells and header is not None and not line.startswith("#"):
                yield title, header, cells


def table_entries():
    """{expected-file task id: table cell} for every task with a table."""
    out = {}
    for path, algo in (("fig5_synthetic_ida.txt", "ida"),
                       ("fig6_synthetic_rbfs.txt", "rbfs")):
        for _, header, row in panels(path):
            for name, cell in zip(header[1:], row[1:]):
                out[f"syn/n={row[0]}/{algo}/{name}"] = cell
    for title, header, row in panels("fig9_semantic.txt"):
        m = re.match(r"Fig\. 9\(\w\): Inventory, (\w+)", title)
        if m:
            for name, cell in zip(header[1:], row[1:]):
                out[f"sem/inventory/k={row[0]}/{m.group(1)}/{name}"] = cell
    directions = {"flat->wide": "flat-wide", "wide->flat": "wide-flat",
                  "flat->split": "flat-split"}
    for title, header, row in panels("fig1_restructuring.txt"):
        if title in directions and row[:2] == ["2", "2"]:
            for name, cell in zip(header[2:], row[2:]):
                out[f"flights/{directions[title]}/rbfs/{name}"] = cell
    return out


def main():
    expected = {}
    with open(os.path.join(HERE, "expected", "discover_paper.tsv")) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                tid, found, stop, states, cost = line.rstrip("\n").split("\t")
                expected[tid] = (found == "1", stop, int(states))
    checked, bad = 0, 0
    for tid, cell in sorted(table_entries().items()):
        if tid not in expected or cell == "-":
            continue
        found, stop, states = expected[tid]
        checked += 1
        cutoff = re.fullmatch(r">(\d+)\*", cell)
        if cutoff or int(cell) > states and stop == "states":
            ok = stop == "states" and not found
        else:
            ok = found and states == int(cell)
        if not ok:
            bad += 1
            print(f"MISMATCH {tid}: table {cell}, expected {expected[tid]}")
    print(f"checked {checked} tasks against results/, {bad} mismatches")
    return 1 if bad or checked == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
