#!/usr/bin/env python3
"""Summarise benchmark records, or compare two sets of them.

    python3 perfbench/compare.py perfbench/results            # one set
    python3 perfbench/compare.py base/results new/results     # base vs new

Per workload, trace flag and metric it prints the median, the quartiles and
the spread (quartile distance over the median) of the runs' values, and for
two sets the change of the median.  Records made on different kernel
backends or Python versions are flagged: their figures do not compare.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    """{(workload, trace): {metric: [values]}} and the environments seen."""
    table = defaultdict(lambda: defaultdict(list))
    envs = set()
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        env = rec["environment"]
        envs.add((env["kernel_backend"], env["python"]))
        for name, m in rec["result"]["metrics"].items():
            table[(rec["workload"], rec["trace"])][name].append(m["value"])
    return table, envs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    sets = [load(d) for d in argv]
    envs = set().union(*(e for _t, e in sets))
    if len(envs) > 1:
        print(f"WARNING: records span backends/Python versions {sorted(envs)}; "
              "their figures do not compare")
    base = sets[0][0]
    for key in sorted(base):
        print(f"== {key[0]} trace={key[1]}")
        for name, values in base[key].items():
            med, q1, q3, spread = summary(values)
            line = (f"  {name:32s} n={len(values):2d} median={med:.6g} "
                    f"q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}")
            if len(sets) == 2 and sets[1][0][key].get(name):
                new = summary(sets[1][0][key][name])
                change = (new[0] - med) / med if med else 0.0
                line += f" | new median={new[0]:.6g} change={change:+.3f}"
            print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
