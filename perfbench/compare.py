"""Compare two result files of perfbench/run.py and flag changed exact counters.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints every metric the two files share with the ratio after/before, and
marks with CHANGED each exact counter (see layers.EXACT) that differs. Exact
counters depend on the workload's inputs, so the two runs must share the
workload and the seed. Exits 1 when an exact counter changed, 2 when the
files cannot be compared, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import EXACT  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text()) for p in argv)
    for key in ("workload", "seed"):
        if before[key] != after[key]:
            print(f"ERROR: {key} differs: {before[key]} vs {after[key]}", file=sys.stderr)
            return 2
    changed = 0
    print(f"workload={before['workload']} seed={before['seed']}")
    for name, b in before["metrics"].items():
        a = after["metrics"].get(name)
        if a is None:
            continue
        bv, av = b["value"], a["value"]
        ratio = f"{av / bv:.3f}" if bv else "-"
        flag = ""
        if name in EXACT and av != bv:
            flag = "CHANGED"
            changed += 1
        print(f"{name:28} {bv:>16.6g} {av:>16.6g} {b['unit']:>6} x{ratio:>7} {flag}")
    print(f"{changed} exact counter(s) changed")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
