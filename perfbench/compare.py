"""Compare two result sets of the benchmark, workload by workload.

    python3 perfbench/compare.py base.jsonl change.jsonl

Each file holds records appended by `run.py --record` (or series.py).
Every untraced run counts; a seed run more than once gives one value
per run. For every workload and end-to-end metric it prints each side's median
and quartiles, the change against the metric's bound from
BENCHMARK.json, and a verdict:

- worse: the change's median is worse than the base's by more than the bound;
- improved: better by more than the base's own quartile spread, with the
  change winning at least nine in ten pairings of runs;
- unresolved: either side's quartile spread exceeds the bound, unless
  every run of one side beats every run of the other;
- unchanged: otherwise.

reward_mean is deterministic at a fixed seed, so it is compared per seed
and must match bit for bit: a difference is reported as "program
changed", never as noise. Runs that failed any output check are listed.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(x, y, direction):
    return x < y if direction == "lower" else x > y


def metric_values(records, name):
    """{(seed, occurrence): value} of one metric, keeping every run of a seed."""
    seen = defaultdict(int)
    out = {}
    for r in records:
        k = seen[r["seed"]]
        seen[r["seed"]] += 1
        out[(r["seed"], k)] = r["result"]["metrics"][name]["value"]
    return out


def win_share(base, change, direction):
    """Share of (base, change) pairings the change wins; ties count for neither.

    Runs are paired by (seed, occurrence) where both sides have the key
    (series.py --base-src runs such pairs back to back), otherwise every
    base run is paired with every change run.
    """
    shared = sorted(set(base) & set(change))
    pairs = ([(base[s], change[s]) for s in shared] if shared else
             [(a, b) for a in base.values() for b in change.values()])
    wins = sum(better(b, a, direction) for a, b in pairs)
    return wins / len(pairs)


def verdict(base, change, metric):
    """(verdict, relative change of the median, spread) for one metric."""
    direction, bound = metric["better"], metric["bound"]
    a, b = list(base.values()), list(change.values())
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    rel = (mb - ma) / abs(ma)
    worse_by = rel if direction == "lower" else -rel
    spread_a = (q3a - q1a) / abs(ma)
    spread = max(spread_a, (q3b - q1b) / abs(mb))
    if spread > bound:
        if all(better(x, y, direction) for x in b for y in a):
            return "improved", rel, spread
        if all(better(y, x, direction) for x in b for y in a):
            return "worse", rel, spread
        return "unresolved", rel, spread
    if worse_by > bound:
        return "worse", rel, spread
    if -worse_by > spread_a and win_share(base, change, direction) >= WIN_SHARE:
        return "improved", rel, spread
    return "unchanged", rel, spread


def by_workload(records):
    out = defaultdict(list)
    for r in records:
        out[r["workload"]].append(r)
    return out


def rewards(records):
    """{seed: set of reward_mean reprs} over the untraced runs."""
    out = defaultdict(set)
    for r in records:
        if r["trace"] == 0:
            out[r["seed"]].add(repr(r["detail"]["reward_mean"]))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_all, change_all = by_workload(load(args.base)), by_workload(load(args.change))
    status = 0

    for wl in sorted(set(base_all) | set(change_all)):
        base = [r for r in base_all.get(wl, []) if r["trace"] == 0]
        change = [r for r in change_all.get(wl, []) if r["trace"] == 0]
        if not base or not change:
            print(f"{wl}: runs on one side only; nothing to compare")
            continue
        print(f"{wl}: {len(base)} base runs, {len(change)} change runs")
        print(f"  {'metric':12s} {'base median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            a, b = metric_values(base, name), metric_values(change, name)
            v, rel, _ = verdict(a, b, m)
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            print(f"  {name:12s} {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f" {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {rel:+8.3f} "
                  f"{m['bound']:6.2f}  {v}")
            status |= v == "worse"

        ra, rb = rewards(base), rewards(change)
        for side, rs in (("base", ra), ("change", rb)):
            for seed, vals in sorted(rs.items()):
                if len(vals) > 1:
                    print(f"  NONDETERMINISTIC: {side} seed {seed} reward_mean {sorted(vals)}")
                    status = 1
        shared = sorted(set(ra) & set(rb))
        changed = [s for s in shared if ra[s] != rb[s]]
        if changed:
            print(f"  reward_mean: PROGRAM CHANGED on seeds {changed} "
                  f"(e.g. seed {changed[0]}: {sorted(ra[changed[0]])} -> "
                  f"{sorted(rb[changed[0]])})")
        elif shared:
            print(f"  reward_mean: identical on {len(shared)} shared seeds")
        else:
            print("  reward_mean: no shared seeds to compare")
        for side, recs in (("base", base), ("change", change)):
            bad = [r["seed"] for r in recs
                   if r["result"]["failed"] or not r["result"]["correct"]]
            if bad:
                print(f"  ERRORS: {side} runs with failed checks on seeds {bad}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
