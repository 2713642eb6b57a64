"""Command-line front end.

Five commands: generate, solve, train, eval, report. Every
artifact-producing run writes exactly one manifest JSON recording the
command, its full configuration, the seed, the tool version, input
hashes, output paths, and wall time. All randomness derives from the
single --seed through labeled seed sequences, so reruns reproduce
artifacts byte for byte. --jobs parallelizes across instances only,
over spawned worker processes pinned to one BLAS thread each; the solve
and eval manifests record that count as poolBlasThreads. The eval
manifest also totals, over all replicas, the logged stops reached with a
charge below 0 (strandedStops, which a warning on stderr reports) and
below the fleet's reserve (reserveBreaches). An exact solve manifest
records limitHits, the number of instances whose search hit --limit
(each also warned about on stderr), and an ALNS solve manifest
replayFailures, the candidates that replay refused, summed over
instances.

Exit codes: 0 success; 2 usage, including a numeric flag out of its
range, a solve flag that another solver reads (SOLVER_FLAGS), a train
config value of the wrong type or range, a train config key its
curriculum overrides (n; epochs beside epochs_per_stage), train
--resume with a curriculum, an --asymmetry at which no instance can be
built, an exact search whose --limit runs out before any complete
trajectory, solve instances that share a file stem, whose output
files would collide, and a solve --metrics path that names a file the
run itself reads or writes (an instance, the checkpoint, a solution,
telemetry or manifest file); 3 data error, including a missing or
unreadable instance, config or checkpoint file, a malformed or invalid
instance (the error names the file and the field), an existing solve
--metrics or eval_metrics.csv file whose header is not METRICS_COLUMNS
or whose last line lacks its line break, or a directory there (refused
before anything is solved or written), a malformed config
or checkpoint file (a checkpoint's weights
and its optimizer state, optState, are checked by every command that
reads it, and a weight or moment that is not base64 of the
parameter's size is refused), or an instance directory with no
instance_*.json; 4 numerical failure.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .alns import alns_solve
from .environment import NoiseConfig, battery_shortfalls, save_solution
from .greedy import greedy_solve
from .instance import (FleetParams, InstanceFormatError, generate_instance, load,
                       normalize_features, save)
from .oracle import SearchLimitError, exact_solve
from .policy import (PolicyConfig, load_policy, multistart_rollout, require,
                     save_policy)
from .training import CURRICULUM_SIZES, TrainConfig, curriculum_train, train

SCHEMA_MANIFEST = "edarp-manifest/1"

# the BLAS thread count of each --jobs worker, and the variables that set
# it: the workers already share out the CPUs, and BLAS threads on top of
# them only contend for the same cores
POOL_BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

METRICS_COLUMNS = ["instance", "solver", "seed", "reward", "objective",
                   "completion_pct", "vehicles", "load_factor",
                   "charge_visits", "energy_per_vehicle_kwh", "wait_s",
                   "late_s", "wall_s"]


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class NumericalError(Exception):
    pass


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_echo(args):
    """Full argument record, minus the dispatch callback."""
    return {k: v for k, v in vars(args).items() if k != "fn"}


def _write_manifest(out_dir, command, config, seed, inputs, outputs, wall,
                    extra=None):
    doc = {
        "schema": SCHEMA_MANIFEST,
        "command": command,
        "config": config,
        "seed": seed,
        "toolVersion": __version__,
        "inputHashes": {str(p): _sha256(p) for p in inputs},
        "outputPaths": [str(p) for p in outputs],
        "wallSeconds": wall,
        **(extra or {}),
    }
    path = Path(out_dir) / f"manifest_{command}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _stream_seed(*labels):
    """Derive one integer seed from the labeled stream."""
    return int(np.random.SeedSequence(list(labels)).generate_state(1)[0] & 0x7FFFFFFF)


def _instance_paths(arg):
    """The instance files one argument names: a directory's sorted
    instance_*.json, which leaves out the manifest that generate writes
    beside them, or else the argument itself."""
    if not Path(arg).is_dir():
        return [arg]
    paths = sorted(Path(arg).glob("instance_*.json"))
    if not paths:
        raise DataError(f"no instances found under {arg}")
    return paths


def _load_instance(path):
    p = Path(path)
    if not p.is_file():
        raise DataError(f"instance file not found: {p}")
    try:
        return load(p.read_bytes())
    except InstanceFormatError as e:
        raise DataError(f"{p}: {e}") from e


def _read_checkpoint(path):
    """(policy, optimizer state) of a checkpoint file.

    A missing, unreadable or malformed file is a DataError.
    """
    p = Path(path)
    if not p.is_file():
        raise DataError(f"checkpoint not found: {p}")
    try:
        return load_policy(p.read_bytes())
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"cannot load checkpoint {p}: {e}") from e


def _run_tasks(fn, tasks, jobs):
    """([fn(task) for task in tasks], manifest fields of the run).

    With more than one job and more than one task the tasks are spread
    over a pool of `jobs` worker processes, each pinned to
    POOL_BLAS_THREADS BLAS threads. BLAS reads its thread variables when
    numpy loads, so the workers are spawned, not forked, from an
    environment that sets them; the parent's own environment is restored
    afterwards. poolBlasThreads is None when the tasks ran in this
    process, under whatever the environment says.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks], {"poolBlasThreads": None}
    import multiprocessing as mp
    saved = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, str(POOL_BLAS_THREADS)))
    try:
        with mp.get_context("spawn").Pool(jobs) as pool:
            results = pool.map(fn, tasks)
    finally:
        for k, value in saved.items():
            if value is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = value
    return results, {"poolBlasThreads": POOL_BLAS_THREADS}


def _metrics_row(path, solver, seed, sol, wall):
    m = sol.metrics
    return [str(path), solver, seed, f"{sol.reward:.6f}",
            f"{sol.objective:.6f}", f"{m['completion_pct']:.6f}",
            m["vehicles"], f"{m['load_factor']:.6f}", m["charge_visits"],
            f"{m['energy_per_vehicle_kwh']:.6f}", f"{m['wait_s']:.6f}",
            f"{m['late_s']:.6f}", f"{wall:.6f}"]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def _check_metrics_file(path):
    """Refuse an existing metrics file that appended rows would leave
    unreadable to report: one whose header is not METRICS_COLUMNS, or
    whose last line lacks its line break (the first new row would join
    it), or a directory (OSError). Called before anything is solved or
    written; an empty file is fine and gets the header."""
    data = path.read_bytes() if path.exists() else b""
    if not data:
        return
    header = next(csv.reader(io.StringIO(data.decode(errors="replace"), newline="")))
    if header != METRICS_COLUMNS:
        raise DataError(f"{path} does not have the metrics column set; "
                        "name a new file or one this tool wrote")
    if not data.endswith(b"\n"):
        raise DataError(f"{path} does not end in a line break; appended rows "
                        "would join its last line")


def _append_metrics(path, rows):
    fresh = not path.exists() or path.stat().st_size == 0
    with open(path, "a", newline="") as fh:
        wr = csv.writer(fh)
        if fresh:
            wr.writerow(METRICS_COLUMNS)
        wr.writerows(rows)


# -- generate -------------------------------------------------------------------

def cmd_generate(args):
    t0 = time.time()
    fleet = FleetParams(vehicles=args.vehicles, capacity=args.capacity)

    def build(i):
        return generate_instance(args.n, charger_count=args.chargers, fleet=fleet,
                                 seed=_stream_seed(args.seed, 1, i),
                                 asymmetry=args.asymmetry)

    # every instance builds before any is written, and again when it is
    # written, so one instance is held at a time; the second build is not
    # free: at n=40 a build takes about 1 ms and serializing 2.4-2.9 ms
    # (2-CPU Xeon VM)
    try:
        for i in range(args.count):
            build(i)
    except ValueError as e:
        raise UsageError(f"--asymmetry {args.asymmetry}: {e}") from e
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / f"instance_{i:04d}.json" for i in range(args.count)]
    for i, path in enumerate(written):
        path.write_bytes(save(build(i)))
    _write_manifest(out, "generate", _config_echo(args), args.seed, [], written,
                    time.time() - t0)
    print(f"wrote {len(written)} instances to {out}")
    return 0


# -- solve ----------------------------------------------------------------------

def _solve_one(task):
    """(path, solution, wall seconds, ALNS history rows or None, the
    solver's manifest counters: limitHits for exact, replayFailures for
    ALNS)."""
    path, solver, seed, opts = task
    inst = _load_instance(path)
    t0 = time.time()
    history = None
    counters = {}
    if solver == "greedy":
        sol = greedy_solve(inst)
    elif solver == "exact":
        try:
            sol, optimal = exact_solve(inst, limit=opts["limit"])
        except SearchLimitError as e:
            raise UsageError(f"{path}: {e}; raise --limit") from e
        counters["limitHits"] = int(not optimal)
        if not optimal:
            print(f"warning: search limit hit on {path}; best found returned",
                  file=sys.stderr)
    elif solver == "alns":
        sol, stats = alns_solve(inst, opts["iterations"], seed)
        counters["replayFailures"] = stats.replay_failures
        if opts["telemetry"]:
            history = stats.history
    else:
        sol = multistart_rollout(opts["policy"], inst, k_p=opts["multistart"])
    wall = time.time() - t0
    if not np.isfinite(sol.reward) or not np.isfinite(sol.objective):
        raise NumericalError(f"non-finite objective for {path}")
    return path, sol, wall, history, counters


# flag -> (the one solver that reads it, its value when not given)
SOLVER_FLAGS = {"iterations": ("alns", 5000), "telemetry": ("alns", False),
                "limit": ("exact", 10_000_000),
                "checkpoint": ("neural", None), "multistart": ("neural", 8)}


def cmd_solve(args):
    stray = []
    for flag, (owner, default) in SOLVER_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif owner != args.solver:
            stray.append(f"--{flag} applies only to --solver {owner}")
    if stray:
        raise UsageError("; ".join(stray))
    out = Path(args.out)
    paths = [p for arg in args.instances for p in _instance_paths(arg)]
    own = [out / "manifest_solve.json"]     # every file this run reads or writes
    if args.checkpoint:
        own.append(Path(args.checkpoint))
    # output files are named by instance stem; two inputs must not share one
    by_stem = {}
    for path in paths:
        stem = Path(path).stem
        if stem in by_stem:
            raise UsageError(f"{by_stem[stem]} and {path} would write the same "
                             f"output files (stem {stem!r}); rename one")
        by_stem[stem] = path
        own += [Path(path), out / f"solution_{stem}_{args.solver}.json"]
        if args.telemetry:
            own.append(out / f"telemetry_{stem}.csv")
    metrics_path = out / args.metrics
    if metrics_path.resolve() in {p.resolve() for p in own}:
        raise UsageError(f"--metrics {args.metrics} names a file this run reads "
                         "or writes; choose another name")
    _check_metrics_file(metrics_path)
    policy = None
    if args.solver == "neural":
        if not args.checkpoint:
            raise UsageError("--checkpoint is required with --solver neural")
        policy, _ = _read_checkpoint(args.checkpoint)
    t0 = time.time()
    opts = {flag: getattr(args, flag) for flag in SOLVER_FLAGS}
    opts["policy"] = policy
    tasks = [(path, args.solver, _stream_seed(args.seed, 2, i), opts)
             for i, path in enumerate(paths)]

    results, run_fields = _run_tasks(_solve_one, tasks, args.jobs)

    # the output directory appears only once every instance has loaded
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    outputs = []
    for (path, sol, wall, history, _), task in zip(results, tasks):
        sol_path = out / f"solution_{Path(path).stem}_{args.solver}.json"
        sol_path.write_bytes(save_solution(sol))
        outputs.append(sol_path)
        if history is not None:
            tele_path = out / f"telemetry_{Path(path).stem}.csv"
            _write_csv(tele_path, ["iteration", "best_cost", "current_cost",
                                   "tolerance", "destroy_op", "repair_op"], history)
            outputs.append(tele_path)
        rows.append(_metrics_row(path, args.solver, task[2], sol, wall))
    _append_metrics(metrics_path, rows)
    outputs.append(metrics_path)
    for *_, counters in results:
        for key, count in counters.items():
            run_fields[key] = run_fields.get(key, 0) + count
    _write_manifest(out, "solve", _config_echo(args), args.seed,
                    paths, outputs, time.time() - t0, run_fields)
    for row in rows:
        print(f"{row[0]}: reward {row[3]} completion {row[5]}%")
    return 0


# -- train ----------------------------------------------------------------------

# config key -> PolicyConfig argument; every TrainConfig field is a key too
POLICY_KEYS = {"d_h": "d_h", "heads": "heads", "layers": "layers",
               "ffn_mult": "ffn_mult", "lambda": "lam", "kappa": "kappa",
               "seed": "seed"}
TRAIN_KEYS = ({f.name for f in fields(TrainConfig)} | set(POLICY_KEYS)
              | {"curriculum", "epochs_per_stage"})


def _train_configs(doc):
    """(PolicyConfig, TrainConfigs) of a config document: one TrainConfig
    per curriculum stage, or a single one. A bad key or value is a
    UsageError naming the key."""
    unknown = sorted(set(doc) - TRAIN_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    base = {f.name: doc[f.name] for f in fields(TrainConfig) if f.name in doc}
    try:
        pol = PolicyConfig(**{arg: doc[key] for key, arg in POLICY_KEYS.items()
                              if key in doc})
        if "curriculum" not in doc:
            return pol, [TrainConfig(**base)]
        # stages take n from the curriculum, epochs from epochs_per_stage
        for key, over in (("n", "curriculum"), ("epochs", "epochs_per_stage")):
            if key in doc and over in doc:
                raise ValueError(f"{key!r} cannot be combined with {over!r}")
        sizes = doc["curriculum"]
        if sizes is True:
            sizes = CURRICULUM_SIZES
        if not isinstance(sizes, list) or not sizes:
            raise ValueError("curriculum must be true or a non-empty list "
                             f"of sizes, got {sizes!r}")
        for size in sizes:
            require("curriculum entry", size, 1, integer=True)
        if "epochs_per_stage" in doc:
            require("epochs_per_stage", doc["epochs_per_stage"], 1, integer=True)
            base["epochs"] = doc["epochs_per_stage"]
        return pol, [TrainConfig(n=size, **base) for size in sizes]
    except ValueError as e:
        raise UsageError(f"config: {e}") from e


def cmd_train(args):
    cfg_path = Path(args.config)
    if not cfg_path.is_file():
        raise DataError(f"config file not found: {cfg_path}")
    try:
        doc = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"malformed config JSON: {e}") from e
    if not isinstance(doc, dict):
        raise DataError("config must be a JSON object")
    pol_cfg, train_cfgs = _train_configs(doc)
    curriculum = "curriculum" in doc
    t0 = time.time()
    inputs = [cfg_path]

    policy = None
    opt_state = None
    if args.resume:
        if curriculum:
            raise UsageError("--resume applies only to a config without "
                             "curriculum: stages restart their optimizer")
        policy, opt_state = _read_checkpoint(args.resume)
        # every policy field but the seed is fixed by the checkpoint
        for key, arg in POLICY_KEYS.items():
            want, have = getattr(pol_cfg, arg), getattr(policy.config, arg)
            if arg != "seed" and have != want:
                raise UsageError(f"config {key}={want} conflicts with checkpoint "
                                 f"{key}={have}")
        inputs.append(Path(args.resume))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    if curriculum:
        policy, results = curriculum_train(train_cfgs, policy_config=pol_cfg)
        rep_path = out / "curriculum_report.csv"
        _write_csv(rep_path, ["size", "zero_shot", "best_val", "passed"],
                   ([r.size, f"{r.zero_shot:.6f}", f"{r.best_val:.6f}", r.passed]
                    for r in results))
        outputs.append(rep_path)
        ck_path = out / "checkpoint_final.json"
        ck_path.write_bytes(save_policy(policy))
        outputs.append(ck_path)
    else:
        policy, report = train(train_cfgs[0], policy=policy,
                               policy_config=pol_cfg, opt_state=opt_state)
        # one checkpoint's bytes at a time: each is written before the next is built
        best_path = out / "checkpoint_best.json"
        best_path.write_bytes(save_policy(report.best_policy))
        final_path = out / "checkpoint_final.json"
        final_path.write_bytes(save_policy(policy, report.opt, report.epoch))
        log_path = out / "train_report.csv"
        log_path.write_text(report.to_csv())
        outputs.extend([best_path, final_path, log_path])
        if not np.isfinite(report.best_val):
            raise NumericalError("training produced a non-finite validation score")
    _write_manifest(out, "train", doc, doc.get("seed", 0), inputs, outputs,
                    time.time() - t0)
    print(f"training artifacts written to {out}")
    return 0


# -- eval -----------------------------------------------------------------------

def _eval_one(task):
    """(path, [(solution, wall seconds)] per replica, the fleet's reserve
    state of charge). The replicas share one encoding, and the first
    replica's wall includes it."""
    path, policy, scale, replicas, seed, multistart = task
    inst = _load_instance(path)
    t0 = time.time()
    enc = policy.encode(None, normalize_features(inst))
    rows = []
    for r in range(replicas):
        noise = NoiseConfig.make(scale, _stream_seed(seed, 3, r))
        sol = multistart_rollout(policy, inst, k_p=multistart, noise=noise,
                                 enc=enc)
        t1 = time.time()
        rows.append((sol, t1 - t0))
        t0 = t1
    return path, rows, inst.fleet.soc_reserve


def cmd_eval(args):
    policy, _ = _read_checkpoint(args.checkpoint)
    paths = _instance_paths(args.instances)
    out = Path(args.out)
    metrics_path = out / "eval_metrics.csv"
    _check_metrics_file(metrics_path)
    t0 = time.time()

    tasks = [(p, policy, args.stochastic, args.replicas,
              _stream_seed(args.seed, 4, i), args.multistart)
             for i, p in enumerate(paths)]
    results, pool_fields = _run_tasks(_eval_one, tasks, args.jobs)

    out.mkdir(parents=True, exist_ok=True)
    rows = []
    per_instance = []
    stranded = breaches = 0
    for (path, reps, reserve), task in zip(results, tasks):
        for sol, wall in reps:
            rows.append(_metrics_row(path, "neural", task[4], sol, wall))
            n_stranded, n_breaches = battery_shortfalls(sol, reserve)
            stranded += n_stranded
            breaches += n_breaches
        per_instance.append([np.mean([s.reward for s, _ in reps]),
                             np.mean([s.objective for s, _ in reps]),
                             np.mean([s.metrics["completion_pct"] for s, _ in reps]),
                             np.mean([s.j_travel for s, _ in reps])])
    _append_metrics(metrics_path, rows)
    agg = np.array(per_instance)
    summary_path = out / "eval_summary.csv"
    _write_csv(summary_path, ["metric", "mean", "std"],
               ([name, f"{agg[:, i].mean():.6f}", f"{agg[:, i].std():.6f}"]
                for i, name in enumerate(["reward", "objective",
                                          "completion_pct", "travel_s"])))
    _write_manifest(out, "eval", _config_echo(args),
                    args.seed, [Path(args.checkpoint), *paths],
                    [metrics_path, summary_path],
                    time.time() - t0, {**pool_fields, "strandedStops": stranded,
                                       "reserveBreaches": breaches})
    if stranded:
        print(f"warning: {stranded} stops reached with a negative state of "
              "charge under traversal noise", file=sys.stderr)
    print(f"evaluated {len(paths)} instances x {args.replicas} replicas; "
          f"mean reward {agg[:, 0].mean():.3f} +/- {agg[:, 0].std():.3f}")
    return 0


# -- report ---------------------------------------------------------------------

def cmd_report(args):
    numeric = METRICS_COLUMNS[3:]
    rows = []
    for path in args.csvs:
        p = Path(path)
        if not p.is_file():
            raise DataError(f"metrics file not found: {p}")
        with open(p, newline="") as fh:
            rd = csv.DictReader(fh, restval="")     # a short row fails float()
            if rd.fieldnames != METRICS_COLUMNS:
                raise DataError(f"{p} does not have the metrics column set")
            for row in rd:
                where = f"{p} line {rd.line_num}"
                if None in row:                     # DictReader's key for extras
                    raise DataError(f"{where}: {len(METRICS_COLUMNS) + len(row[None])} "
                                    f"fields, the header has {len(METRICS_COLUMNS)}")
                try:
                    row.update((c, float(row[c])) for c in numeric)
                except ValueError as e:
                    raise DataError(f"{where}: {e}") from e
                bad = [c for c in numeric if not math.isfinite(row[c])]
                if bad:
                    raise DataError(f"{where}: non-finite {bad[0]} {row[bad[0]]}")
                rows.append(row)
    if not rows:
        raise DataError("no metrics rows to aggregate")
    by_solver = {}
    for row in rows:
        by_solver.setdefault(row["solver"], []).append(row)
    lines = [["solver", "count"] + [f"{c}_{s}" for c in numeric
                                    for s in ("mean", "std")]]
    for solver in sorted(by_solver):
        grp = by_solver[solver]
        line = [solver, str(len(grp))]
        for c in numeric:
            vals = np.array([r[c] for r in grp])
            line += [f"{vals.mean():.6f}", f"{vals.std():.6f}"]
        lines.append(line)
    text = "\n".join(",".join(l) for l in lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


# -- entry ----------------------------------------------------------------------

def _at_least(kind, lo):
    """argparse type: a finite number of the given kind, no smaller than lo."""
    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and value >= lo):
            raise argparse.ArgumentTypeError(f"must be a finite number >= {lo}, got {text}")
        return value
    parse.__name__ = kind.__name__       # argparse names the kind in its own messages
    return parse


def build_parser():
    ap = argparse.ArgumentParser(prog="edarp",
                                 description="electric dial-a-ride workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write random instances")
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=_at_least(int, 1), default=1)
    g.add_argument("--n", type=_at_least(int, 1), required=True)
    g.add_argument("--chargers", type=_at_least(int, 1), default=1)
    g.add_argument("--vehicles", type=_at_least(int, 1), default=2)
    g.add_argument("--capacity", type=_at_least(int, 1), default=3)
    g.add_argument("--asymmetry", type=_at_least(float, 0.0), default=0.2)
    g.add_argument("--seed", type=_at_least(int, 0), default=0)
    g.set_defaults(fn=cmd_generate)

    s = sub.add_parser("solve", help="solve instances")
    s.add_argument("instances", nargs="+")
    s.add_argument("--solver", required=True,
                   choices=["greedy", "alns", "neural", "exact"])
    # solver-specific flags default to None so cmd_solve can tell a given
    # flag from an absent one; SOLVER_FLAGS holds their real defaults
    s.add_argument("--checkpoint")
    s.add_argument("--iterations", type=_at_least(int, 0))
    s.add_argument("--limit", type=_at_least(int, 1))
    s.add_argument("--multistart", type=_at_least(int, 0))
    s.add_argument("--telemetry", action="store_true", default=None)
    s.add_argument("--metrics", default="metrics.csv")
    s.add_argument("--out", default=".")
    s.add_argument("--seed", type=_at_least(int, 0), default=0)
    s.add_argument("--jobs", type=_at_least(int, 1), default=1)
    s.set_defaults(fn=cmd_solve)

    t = sub.add_parser("train", help="train a policy from a JSON config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", default=".")
    t.add_argument("--resume")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on instances")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--instances", required=True)
    e.add_argument("--stochastic", type=_at_least(float, 0.0), default=0.0)
    e.add_argument("--replicas", type=_at_least(int, 1), default=1)
    e.add_argument("--multistart", type=_at_least(int, 0), default=8)
    e.add_argument("--out", default=".")
    e.add_argument("--seed", type=_at_least(int, 0), default=0)
    e.add_argument("--jobs", type=_at_least(int, 1), default=1)
    e.set_defaults(fn=cmd_eval)

    r = sub.add_parser("report", help="aggregate metrics CSVs by solver")
    r.add_argument("csvs", nargs="+")
    r.add_argument("--out")
    r.set_defaults(fn=cmd_report)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (NumericalError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
