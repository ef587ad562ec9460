"""Compare two sets of benchmark results.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines that ``run.py --out`` appends.  Runs pair up
by workload and seed.  For every workload and end-to-end metric in
``BENCHMARK.json`` the report gives each side's median and quartiles, the
number of pairs the change wins, the median difference as a share of the
parent's median, and a verdict:

* improved: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither), and the medians differ by more than the
  parent's quartile spread;
* worse: the change's median is worse than the parent's by more than the
  metric's bound, or, for ``ok_ratio``, lower at all or lower in any pair;
* unresolved: the parent's own spread is wider than the bound (unless every
  change run reads better than every parent run), or too few runs;
* unchanged: otherwise.

Failures come first.  If the change fails more ops than the parent in any
pair, or in total, the workload is reported worse because of failures and
no metric of it reads "improved": a fast but wrong change gains nothing.

Per-layer metrics from traced runs are listed with medians only; they have
no bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    """(workload, trace) -> seed -> metric values, plus ``failed`` and
    ``attempted`` under those keys."""
    runs = defaultdict(dict)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                rec = json.loads(line)
                values = {k: m["value"] for k, m in rec["metrics"].items()}
                values.update(failed=rec["failed"], attempted=rec["attempted"])
                runs[(rec["workload"], rec["trace"])][rec["seed"]] = values
    return runs


def more_failures(before, after, seeds) -> str:
    """Why the change fails more ops than the parent, or ''."""
    pairs = sum(after[s]["failed"] > before[s]["failed"] for s in seeds)
    if pairs:
        return f"the change fails more ops in {pairs} of {len(seeds)} pairs"
    failed = [sum(side[s]["failed"] for s in side) for side in (before, after)]
    attempted = [sum(side[s]["attempted"] for s in side) for side in (before, after)]
    if failed[1] * attempted[0] > failed[0] * attempted[1]:
        return f"the change fails {failed[1]}/{attempted[1]} ops against {failed[0]}/{attempted[0]}"
    return ""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, bound, lower_is_better, strict=False):
    sign = -1 if lower_is_better else 1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = (cm - pm) * sign  # positive means the change is better
    wins = sum((c - p) * sign > 0 for p, c in pairs)
    if strict and (gain < 0 or any((c - p) * sign < 0 for p, c in pairs)):
        return "worse", wins
    all_better = min(c * sign for c in change) > max(p * sign for p in parent)
    all_worse = max(c * sign for c in change) < min(p * sign for p in parent)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved", wins
    if len(parent) < 2 or len(change) < 2:
        return "unresolved", wins
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return ("worse" if all_worse and -gain > bound * abs(pm) else "unresolved"), wins
    if -gain > bound * abs(pm):
        return "worse", wins
    return "unchanged", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result sets")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    parent, change = load(args.parent), load(args.change)
    for workload in [w["name"] for w in spec["workloads"]]:
        before, after = parent.get((workload, 0), {}), change.get((workload, 0), {})
        seeds = sorted(set(before) & set(after))
        print(f"== {workload}: {len(before)} parent runs, {len(after)} change runs, {len(seeds)} pairs")
        failing = more_failures(before, after, seeds) if before and after else ""
        if failing:
            print(f"  WORSE because of failures: {failing}; no metric counts as improved")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [before[s][name] for s in sorted(before) if name in before[s]]
            c = [after[s][name] for s in sorted(after) if name in after[s]]
            if not p or not c:
                print(f"  {name:15s} missing on one side")
                continue
            pairs = [(before[s][name], after[s][name]) for s in seeds]
            # any drop in ok_ratio is worse, whatever the bound
            kind, wins = verdict(p, c, pairs, metric["bound"], metric["better"] == "lower", name == "ok_ratio")
            if failing and kind == "improved":
                kind = "not counted (more failures)"
            pq, cq = quartiles(p), quartiles(c)
            share = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
            print(
                f"  {name:15s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']}  "
                f"wins {wins}/{len(pairs)}  median {share:+.2%} of parent median {pq[1]:.6g}  "
                f"(bound {metric['bound']:.0%})  -> {kind}"
            )
        before, after = parent.get((workload, 1), {}), change.get((workload, 1), {})
        if before and after:
            print(f"  per-layer medians over {len(before)} / {len(after)} traced runs (parent -> change):")
            for metric in spec["per_layer"]:
                name = metric["name"]
                p = [v[name] for v in before.values() if name in v]
                c = [v[name] for v in after.values() if name in v]
                if p and c and (any(p) or any(c)):
                    pm, cm = statistics.median(p), statistics.median(c)
                    share = f"{(cm - pm) / pm:+.2%} of {pm:.6g}" if pm else "parent 0"
                    print(f"    {name:45s} {pm:.6g} -> {cm:.6g} {metric['unit']} ({share})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
