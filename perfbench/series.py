"""Run one workload over several seeds and summarize the run-to-run spread.

    python3 perfbench/series.py --workload alns-n40 --seeds 1-10 --record a.jsonl

Each seed is a fresh `run.py` process, run one after another. The
records are appended to --record (compare.py reads them). The summary
gives, per end-to-end metric, the median over runs, the quartile
spread as a share of the median (the figure BENCHMARK.json's bounds
are checked against) and the bound itself.

To compare two versions of the program, run them as pairs:

    python3 perfbench/series.py --workload alns-n40 --seeds 1-10 \
        --base-src ../parent/src --base-record base.jsonl --record change.jsonl

Each seed then runs the base sources and this tree's `src` back to back,
alternating which goes first, with this tree's harness on both sides,
so that drift of the host's speed over minutes falls on both sides
alike; the compare table follows the summaries.

Seeds 1-10 are the development seeds; 101-110 are held out for
confirming a claim on inputs it was not tuned on.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import compare
from compare import load, quartiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEV_SEEDS = "1-10"
HELD_OUT_SEEDS = "101-110"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """Quartile distance over the median, as the benchmark's bounds use it."""
    q1, med, q3 = quartiles(values)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def summarize(record, workload, seeds, spec):
    recs = [r for r in load(record) if r["workload"] == workload
            and r["trace"] == 0 and r["seed"] in seeds]
    print(f"{record}: {workload}: {len(recs)} runs")
    for m in spec["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in recs]
        if len(vals) < 2:
            continue
        med, sp = spread(vals)
        flag = "" if sp <= m["bound"] / 3 else (" > bound/3" if sp <= m["bound"]
                                                 else " > BOUND")
        print(f"  {m['name']:12s} median {med:12.6g} {m['unit']:5s} "
              f"spread {sp:6.3f}  bound {m['bound']}{flag}")
    if recs:
        errors = [r["detail"]["error_rate"] for r in recs]
        print(f"  error_rate max {max(errors)}; reward_mean by seed "
              + ", ".join(f"{r['seed']}:{r['detail']['reward_mean']:.6g}" for r in recs))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default=DEV_SEEDS,
                    help=f"e.g. 1-10 or 1,3,5 (held-out: {HELD_OUT_SEEDS})")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", required=True)
    ap.add_argument("--base-src", type=Path,
                    help="edarp sources of a base version to run alternately "
                         "with this tree's, seed by seed")
    ap.add_argument("--base-record", help="where the base runs' records go")
    args = ap.parse_args(argv)
    if bool(args.base_src) != bool(args.base_record):
        ap.error("--base-src and --base-record go together")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
    sides = [("change", ["--record", args.record])]
    if args.base_src:
        sides.insert(0, ("base", ["--record", args.base_record,
                                  "--src", str(args.base_src.resolve())]))
    seeds = parse_seeds(args.seeds)
    for i, seed in enumerate(seeds):
        for label, extra in (sides if i % 2 == 0 else sides[::-1]):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd + extra + ["--seed", str(seed)], cwd=ROOT,
                                  capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{label} seed {seed}: exit {proc.returncode} in "
                  f"{time.perf_counter() - t0:.1f} s: {last[0][:100]}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)

    if args.trace:
        return 0
    for _, extra in sides:
        summarize(extra[1], args.workload, seeds, spec)
    if args.base_src:
        compare.main([args.base_record, args.record])
    return 0


if __name__ == "__main__":
    sys.exit(main())
