"""Read the run records that perfbench/run.py writes to perfbench/out/.

    python3 perfbench/report.py compare BASE.json NEW.json
        Every metric of two runs of one workload side by side.  Refuses runs
        made with different Python versions or rational backends, whose
        speeds differ by up to 10x for reasons outside the code.

    python3 perfbench/report.py acceptance RECORD.json...
        From traced runs (--trace 1) of price-recovery, equilibrium-search
        and oracle-corpus: projected seconds of acceptance criteria 2, 3 and
        5, and the headroom against their budgets.
"""

from __future__ import annotations

import json
import sys

import workloads

SAME = ("python", "rational_backend", "workload", "trace")


def load(path):
    with open(path) as fh:
        return json.load(fh)


def compare(base_path, new_path):
    base, new = load(base_path), load(new_path)
    differ = [k for k in SAME if base["meta"][k] != new["meta"][k]]
    if differ:
        for k in differ:
            print(f"error: {k} differs: {base['meta'][k]!r} vs {new['meta'][k]!r}", file=sys.stderr)
        return 2
    print(f"{'metric':48s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            continue
        ratio = f"{n['value'] / b['value']:9.3f}" if b["value"] else " " * 9
        print(f"{name:48s} {b['value']:14.6g} {n['value']:14.6g} {ratio} {b['unit']}")
    return 0


def acceptance(paths):
    projected = {}
    for path in paths:
        for name, m in load(path)["metrics"].items():
            if name.startswith("acceptance.") and name.endswith(".projected_s") and m["value"]:
                projected[name] = m["value"]
    c5 = {k: v for k, v in projected.items() if k.startswith("acceptance.c5.")}
    families = {k.split(".")[2] for k in c5}
    for name, value in sorted(projected.items()):
        print(f"{name:48s} {value:10.1f} s")
    if "acceptance.c2.projected_s" in projected:
        c2 = projected["acceptance.c2.projected_s"]
        print(f"criterion 2: {c2:.1f} s, headroom {workloads.BUDGET_S['c2'] / c2:.2f}x")
    missing = sorted(set(workloads.FAMILY_SIZES) - {"corpus"} - families)
    if missing:
        print(f"criterion 5: no projection for {', '.join(missing)}")
    else:
        total = sum(c5.values())
        print(f"criterion 5: {total:.1f} s, headroom {workloads.BUDGET_S['c5'] / total:.2f}x")
    return 0


def main(argv):
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    if len(argv) >= 2 and argv[0] == "acceptance":
        return acceptance(argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
