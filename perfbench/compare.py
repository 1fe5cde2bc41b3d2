#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric, per workload.

    python3 perfbench/compare.py BASE.log NEW.log

Each file holds the standard output of one or more run.py invocations. Runs
are matched by workload and seed, and the comparison is refused (exit 3)
unless every matched pair has identical input digests: a change to the
scene generator's random stream would otherwise pass as a speed change.
For each end-to-end metric the medians, the change in the worse direction,
the base runs' spread and the bound from BENCHMARK.json are printed. The
spread is the distance between the quartiles of the base runs over their
median. Where it is wider than the bound, or there are fewer than two base
runs, the metric is unresolved unless every new run is better than every
base run. Make the base and new runs alternately, so that both sides see
the same machine conditions. The exit code is 1 when a metric got worse by
more than its bound, otherwise 4 when a metric is unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

PREFIX = "perfbench-record "


def load_runs(path) -> dict:
    """{workload: {seed: record}} from the run.py output in `path`."""
    runs = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        if line.startswith(PREFIX):
            rec = json.loads(line[len(PREFIX):])
            runs[rec["record"]["workload"]][rec["record"]["seed"]] = rec
    return runs


def digest_mismatches(base, new) -> list[str]:
    out = []
    for w in sorted(set(base) | set(new)):
        b, n = base.get(w, {}), new.get(w, {})
        if set(b) != set(n):
            out.append(f"{w}: seeds differ ({sorted(b)} vs {sorted(n)})")
        out += [
            f"{w} seed {s}: input digests differ"
            for s in sorted(set(b) & set(n))
            if b[s]["record"]["digest"] != n[s]["record"]["digest"]
        ]
    return out


def spread(values) -> float | None:
    """Distance between the quartiles over the median; None below two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric, base, new) -> tuple[str, float, float | None]:
    """("WORSE" | "ok" | "better" | "unresolved", worse-by share, base spread)."""
    lower = metric["better"] == "lower"
    mb, mn = statistics.median(base), statistics.median(new)
    worse = (mn - mb) / mb if lower else (mb - mn) / mb
    sp = spread(base)
    if sp is None or sp > metric["bound"]:
        every_better = max(new) < min(base) if lower else min(new) > max(base)
        return ("better" if every_better else "unresolved"), worse, sp
    return ("WORSE" if worse > metric["bound"] else "ok"), worse, sp


def compare(spec, base, new) -> tuple[list[str], set[str]]:
    lines, verdicts = [], set()
    for w in sorted(base):
        for m in spec["end_to_end"]:
            b = [r[m["name"]] for r in base[w].values() if m["name"] in r]
            n = [r[m["name"]] for r in new[w].values() if m["name"] in r]
            if not b or not n:
                continue
            v, worse, sp = verdict(m, b, n)
            verdicts.add(v)
            sp_text = "n/a" if sp is None else f"{sp:.3f}"
            lines.append(
                f"{w:<12} {m['name']:<16} base {statistics.median(b):>12.6g}  "
                f"new {statistics.median(n):>12.6g} {m['unit']:<5} worse by {worse:+.3f} "
                f"(spread {sp_text}, bound {m['bound']})  {v}  runs {len(b)}/{len(n)}"
            )
    return lines, verdicts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    base, new = load_runs(args.base), load_runs(args.new)
    if not base or not new:
        print("compare: no perfbench-record lines in one of the files", file=sys.stderr)
        return 2
    bad = digest_mismatches(base, new)
    if bad:
        print("compare: refusing to compare runs with different inputs:", file=sys.stderr)
        for line in bad:
            print("  " + line, file=sys.stderr)
        return 3
    lines, verdicts = compare(spec, base, new)
    print("\n".join(lines))
    if "WORSE" in verdicts:
        return 1
    return 4 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
