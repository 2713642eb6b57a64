"""Fast self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json declares has a source in the
harness, that every workload emits every end-to-end metric (untraced)
and every per-layer metric (traced) with the declared unit, that traced
self times sum to no more than the traced wall, that the compare
verdicts, run pairing, tail percentile and host-speed scaling follow
their definitions, and that the benchmark refuses to run without the
program's sources. Exits non-zero on the first failure.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402
from tracing import EXPECTED, LAYERS, TRACE_METRICS, metric_source  # noqa: E402

END_TO_END = {"setup_s", "ops_per_s", "item_s_p50", "item_s_tail", "peak_rss_mb"}
WORKLOAD_NAMES = {"alns-n40", "train-n10", "eval-n40", "exact-n5"}


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check({w["name"] for w in spec["workloads"]} == WORKLOAD_NAMES, "workload names")
    check(set(EXPECTED) == WORKLOAD_NAMES, "every workload has expected layers")
    check({m["name"] for m in spec["end_to_end"]} == END_TO_END,
          "end-to-end metric names")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in spec["end_to_end"]), "setup_s declared")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds in (0, 0.25]")
    spans = {name for name, _, _ in LAYERS}
    layer_names = {m["name"] for m in spec["per_layer"]}
    check(set(TRACE_METRICS) <= layer_names, "trace metrics declared")
    for name in layer_names - set(TRACE_METRICS):
        try:
            span, _ = metric_source(name)
        except KeyError:
            span = None
        check(span in spans, f"per-layer metric {name} reads a traced span")
    check(all(span in spans for names in EXPECTED.values() for span in names),
          "expected layers are traced spans")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "metric names unique")


def check_helpers():
    check(run.tail_percentile(20) == 50 and run.tail_percentile(100) == 90
          and run.tail_percentile(5) == 100, "tail percentile")
    check(run.percentile([1.0, 2.0, 3.0], 50) == 2.0, "percentile")
    m = {"name": "x", "better": "lower", "bound": 0.1}
    base = {s: 1.0 + 0.001 * s for s in range(10)}
    check(compare.verdict(base, dict(base), m)[0] == "unchanged", "verdict unchanged")
    check(compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, m)[0] == "worse",
          "verdict worse")
    check(compare.verdict(base, {s: v * 0.8 for s, v in base.items()}, m)[0] == "improved",
          "verdict improved")
    noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
    check(compare.verdict(base, noisy, m)[0] == "unresolved", "verdict unresolved")
    recs = [{"seed": s, "result": {"metrics": {"x": {"value": v}}}}
            for s, v in ((1, 1.0), (2, 2.0), (1, 3.0))]
    check(compare.metric_values(recs, "x") == {(1, 0): 1.0, (2, 0): 2.0, (1, 1): 3.0},
          "repeated seeds are all kept")
    clock = run.HostClock.__new__(run.HostClock)
    clock.samples = [(0.0, 0.06), (1.0, 1.03), (2.0, 2.03)]
    scaled, raw = clock.scale(0.06, 2.0)
    check(math.isclose(raw, 1.91) and math.isclose(scaled, 1.91 * run.REF_S / 0.04),
          "host clock drops inner reference loops and scales by their mean")


def run_workload(spec, name, trace, record):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", "--record", str(record)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    check(proc.returncode == 0, f"{name} trace {trace} exit {proc.returncode}: "
                                f"{proc.stderr[-1000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{name} result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{name} trace {trace} outputs correct: {proc.stdout[-2000:]}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in declared},
          f"{name} trace {trace} emits exactly the declared metrics")
    for m in declared:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{name} {m['name']} unit")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{name} {m['name']} finite")
    if trace:
        detail = json.loads(Path(record).read_text().splitlines()[-1])["detail"]
        check(detail["self_share"] <= 1.0 + 1e-9,
              f"{name}: traced self times exceed the traced wall")
    else:
        check(all(result["metrics"][k]["value"] > 0 for k in END_TO_END),
              f"{name}: end-to-end metrics are positive")


def check_refuses_without_sources(spec):
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH_DIR / "_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload",
                               "alns-n40", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        check(proc.returncode != 0, "run without sources must fail")
        check('"metrics"' not in proc.stdout, "run without sources prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_helpers()
    (BENCH_DIR / "_out").mkdir(exist_ok=True)
    check_refuses_without_sources(spec)
    record = BENCH_DIR / "_out" / "selftest.jsonl"
    record.unlink(missing_ok=True)
    for name in sorted(WORKLOAD_NAMES):
        for trace in (0, 1):
            run_workload(spec, name, trace, record)
            print(f"ok {name} trace {trace}", flush=True)
    records = [json.loads(line) for line in record.read_text().splitlines()]
    check(all(r["detail"]["environment"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
              for r in records), "BLAS pinned to one thread")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
