"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload alns-n40 --seed 1 --seconds 22 --trace 0

With --trace 0 the run sets up several times (setup_s is their median),
then makes timed passes over the workload's chunks, at least one full
sweep and as many more passes as fill about --seconds, and reports the
end-to-end metrics. With --trace 1 it sets up once and makes one
untraced and one traced sweep, and reports the per-layer metrics of the
traced setup and sweep. Every pass's outputs are checked; a failed
check counts the ops it covers as failed and clears `correct`.

Timings are given at a fixed host speed: HostClock times a fixed
reference loop around every timed section and scales the section's
wall by REF_S over the reference time it saw. The raw walls and the
host speed are in the detail line.

--record FILE appends the result with its details (sample counts,
quartiles, reward, run environment) as one JSON line; compare.py reads
such files. --src DIR benchmarks the edarp sources in DIR instead of
the `src` next to this directory, so one harness can time two versions
of the program (series.py --base-src does that).

Metric names, units and directions come from BENCHMARK.json.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
TAIL_MIN_BEYOND = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="append the result and details to this JSONL file")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the edarp package (default: %(default)s)")
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="tiny inputs, for the harness self-test only")
    return ap.parse_args(argv)


# -- run environment ------------------------------------------------------------

def git_commit(root):
    """HEAD commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment_stamp(src):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"numpy": numpy.__version__, "blas": blas,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(src.resolve().parent)}


def import_cli(src):
    """A fresh interpreter importing the CLI: process start to imports done."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", "import edarp.cli"], env=env,
                   cwd=ROOT, check=True, timeout=120)


# -- host speed -------------------------------------------------------------------

# Seconds HostClock's reference loop took on a 2-CPU x86-64 KVM guest
# (Xeon, Python 3.11, OpenBLAS 0.3.31) at a quiet moment; timings are
# scaled to that speed.
REF_S = 0.028


class HostClock:
    """Scales walls to a host of fixed speed.

    A shared host's speed drifts by up to 20% over tens of seconds
    (README.md, Noise), which moved the medians of ten runs by more than
    any bound. A fixed reference loop is timed right before and right
    after every timed section (and between REINFORCE updates): about
    half pure-Python arithmetic and dict stores, half a numpy attention
    block of the policy encoder's shapes (85 nodes, 64 features, 4
    heads). A section's wall, less the reference loops run inside it,
    is scaled by REF_S over the mean reference time around and inside
    it. Neither the loop nor REF_S is part of the program, so only the
    program's own speed moves the scaled timings.
    """

    def __init__(self):
        import numpy
        self._np = numpy
        rng = numpy.random.default_rng(0)
        self._x = rng.standard_normal((85, 64))
        self._w = rng.standard_normal((4, 64, 64)) * 0.1
        self._f1 = rng.standard_normal((64, 256)) * 0.1
        self._f2 = rng.standard_normal((256, 64)) * 0.1
        self.samples = []               # (start, end) of each reference loop
        for _ in range(3):              # warm up
            self.sample()
        self.samples.clear()

    def _attention(self, layers):
        np, w = self._np, self._w
        x = self._x
        for _ in range(layers):
            q, k, v = x @ w[0], x @ w[1], x @ w[2]
            heads = []
            for h in range(0, 64, 16):
                a = q[:, h:h + 16] @ k[:, h:h + 16].T / 4.0
                a = np.exp(a - a.max(axis=1, keepdims=True))
                heads.append((a / a.sum(axis=1, keepdims=True)) @ v[:, h:h + 16])
            y = x + np.concatenate(heads, axis=1) @ w[3]
            y = (y - y.mean(axis=1, keepdims=True)) / (y.std(axis=1, keepdims=True) + 1e-6)
            x = y + np.maximum(y @ self._f1, 0.0) @ self._f2
        return x

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            acc, table = 0, {}
            for i in range(120_000):
                acc += i * i % 7
                table[i & 255] = acc
            self._attention(20)
            self.samples.append((t0, time.perf_counter()))
        finally:
            if enabled:
                gc.enable()

    def timed(self, fn, *args):
        """fn(*args) between two reference loops: (result, scaled s, raw s)."""
        self.sample()
        t0 = time.perf_counter()
        res = fn(*args)
        t1 = time.perf_counter()
        self.sample()
        return (res, *self.scale(t0, t1))

    def scale(self, t0, t1):
        """(scaled, raw) seconds of [t0, t1], less the reference loops inside."""
        before = [s for s in self.samples if s[1] <= t0][-1]
        inside = [s for s in self.samples if s[0] >= t0 and s[1] <= t1]
        after = next(s for s in self.samples if s[0] >= t1)
        raw = t1 - t0 - sum(b - a for a, b in inside)
        ref = statistics.fmean(b - a for a, b in [before, *inside, after])
        return raw * REF_S / ref, raw

    def speed(self):
        """Median host speed over the run, as REF_S over the reference time."""
        return REF_S / statistics.median(b - a for a, b in self.samples)


# -- statistics -------------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_MIN_BEYOND of n samples above it."""
    if n <= TAIL_MIN_BEYOND:
        return 100
    return math.floor(100.0 * (n - TAIL_MIN_BEYOND) / n)


def summary(values):
    return {"median": statistics.median(values), "q1": percentile(values, 25),
            "q3": percentile(values, 75), "n": len(values)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the two kinds of run -----------------------------------------------------------

def timed_pass(wl, ctx, i, out, clock):
    """One checked pass over chunk i: (scaled s, raw s, PassResult)."""
    gc.collect()
    raw, scaled, wall = clock.timed(wl.run, ctx, ctx["chunks"][i], out, clock.sample)
    res = wl.check(ctx, ctx["chunks"][i], out, raw)
    shutil.rmtree(out, ignore_errors=True)
    return scaled, wall, res


def measure(wl, work, seed, seconds, src, clock):
    setups = []
    for rep in range(SETUP_REPS):
        _, imports, _ = clock.timed(import_cli, src)
        ctx, scaled, _ = clock.timed(wl.setup, work / f"setup{rep}", seed)
        setups.append(imports + scaled)

    chunks = len(ctx["chunks"])
    first = {}                  # chunk index -> rewards of its first pass
    walls, problems = [], []
    timed = raw_timed = 0.0
    attempted = failed = k = 0
    raw = 0.0
    # a full sweep, then passes while the next one ends nearer to --seconds
    while k < chunks or raw_timed + raw / 2 < seconds:
        i = k % chunks
        scaled, raw, res = timed_pass(wl, ctx, i, work / f"pass{k}", clock)
        timed += scaled
        raw_timed += raw
        attempted += res.attempted
        failed += res.failed
        problems += res.problems
        walls += [w * scaled / raw for w in res.item_walls]
        if i not in first:
            first[i] = res.rewards
        elif res.rewards != first[i]:
            failed += res.attempted - res.failed
            problems.append(f"pass {k} rewards differ from chunk {i}'s first pass: "
                            "run is not deterministic")
        k += 1

    rewards = [r for i in range(chunks) for r in first[i]]
    tail_q = tail_percentile(len(walls))
    if not walls:
        walls = [0.0]       # every item failed; `correct` is false already
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (attempted - failed) / timed,
        "item_s_p50": statistics.median(walls),
        "item_s_tail": percentile(walls, tail_q),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "reward_mean": statistics.fmean(rewards) if rewards else None,
        "error_rate": failed / max(1, attempted),
        "passes": k, "chunks": chunks, "timed_s": timed,
        "raw_timed_s": raw_timed, "raw_ops_per_s": (attempted - failed) / raw_timed,
        "host_speed": clock.speed(), "reference_loops": len(clock.samples),
        "setup_s": summary(setups),
        "item_s": summary(walls),
        "item_s_tail_percentile": tail_q,
        "problems": problems[:20],
    }
    return metrics, attempted, failed, detail


def sweep(wl, ctx, work, clock):
    """Run every chunk once, unchecked: (scaled s, raw s, [(chunk, out, raw)])."""
    scaled = raw = 0.0
    outputs = []
    for i, chunk in enumerate(ctx["chunks"]):
        out = work / f"chunk{i}"
        res, s, r = clock.timed(wl.run, ctx, chunk, out)
        scaled += s
        raw += r
        outputs.append((chunk, out, res))
    return scaled, raw, outputs


def check_sweep(wl, ctx, outputs):
    from workloads import PassResult
    total = PassResult()
    for chunk, out, res in outputs:
        total.add(wl.check(ctx, chunk, out, res))
    return total


def trace(wl, work, seed, names, clock):
    from tracing import EXPECTED, TRACE_METRICS, Tracer, layer_value

    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        ctx = wl.setup(work / "setup", seed)
    setup_wall = time.perf_counter() - t0
    gc.collect()
    plain_s, _, outputs = sweep(wl, ctx, work / "plain", clock)
    plain = check_sweep(wl, ctx, outputs)
    gc.collect()
    tracer.install()
    try:
        traced_s, traced_wall, outputs = sweep(wl, ctx, work / "traced", clock)
    finally:
        tracer.uninstall()
    traced = check_sweep(wl, ctx, outputs)

    covered = setup_wall + traced_wall
    trace_values = {
        "trace.overhead": traced_s / plain_s - 1.0,
        "trace.uncovered_share": 1.0 - tracer.root_wall / covered,
    }
    metrics = {name: trace_values[name] if name in TRACE_METRICS
               else layer_value(tracer.stats, name) for name in names}

    problems = plain.problems + traced.problems
    missing = [span for span in EXPECTED[wl.name] if tracer.stats[span].calls == 0]
    if missing:
        problems.append(f"layers expected to work recorded no calls: {missing}")
    if traced.rewards != plain.rewards:
        problems.append("traced sweep rewards differ from the untraced sweep")
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write_spans(span_file)
    detail = {
        "reward_mean": statistics.fmean(traced.rewards) if traced.rewards else None,
        "plain_sweep_s": plain_s, "traced_sweep_s": traced_s,
        "traced_sweep_raw_s": traced_wall,
        "traced_setup_s": setup_wall, "spans_kept": len(tracer.spans),
        "self_share": tracer.self_seconds() / covered,
        "spans_dropped": tracer.dropped, "span_file": str(span_file.relative_to(ROOT)),
        "missing_layers": missing, "problems": problems[:20],
    }
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    ok = not missing and traced.rewards == plain.rewards
    return metrics, attempted, failed, detail, ok


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"          # before numpy is first imported
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = args.src.resolve()
    if not (src / "edarp" / "__init__.py").is_file():
        print(f"error: edarp sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.scale)
    work = BENCH_DIR / "_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        declared = spec["per_layer" if args.trace else "end_to_end"]
        clock = HostClock()
        if args.trace:
            metrics, attempted, failed, detail, ok = trace(
                wl, work, args.seed, [m["name"] for m in declared], clock)
        else:
            metrics, attempted, failed, detail = measure(wl, work, args.seed,
                                                         args.seconds, src, clock)
            ok = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["environment"] = environment_stamp(src)
    units = {m["name"]: m["unit"] for m in declared}
    result = {"correct": ok and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    for problem in detail["problems"]:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"{name:52s} {value:14.6g} {units[name]}")
    print("detail " + json.dumps(detail, sort_keys=True))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": wl.name, "seed": args.seed,
                                 "trace": args.trace, "seconds": args.seconds,
                                 "scale": args.scale, "result": result,
                                 "detail": detail}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
