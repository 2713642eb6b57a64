"""Command-line front end.

Five commands: generate, solve, train, eval, report. Every
artifact-producing run writes exactly one manifest JSON recording the
command, its full configuration, the seed, the tool version, input
hashes, output paths, and wall time. All randomness derives from the
single --seed through labeled seed sequences, so reruns reproduce
artifacts byte for byte. --jobs parallelizes across instances only.

Exit codes: 0 success; 2 usage, including a numeric flag out of its range
and an exact search whose --limit runs out before any complete
trajectory; 3 data error, including a missing, unreadable or malformed
instance, config or checkpoint file; 4 numerical failure.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .alns import AlnsConfig, alns_solve
from .environment import NoiseConfig, save_solution
from .greedy import greedy_solve
from .instance import FleetParams, InstanceFormatError, generate_instance, load, save, validate
from .oracle import SearchLimitError, exact_solve
from .policy import PolicyConfig, load_policy, multistart_rollout
from .training import CURRICULUM_SIZES, TrainConfig, curriculum_train, train

SCHEMA_MANIFEST = "edarp-manifest/1"

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


def _write_manifest(out_dir, command, config, seed, inputs, outputs, wall):
    doc = {
        "schema": SCHEMA_MANIFEST,
        "command": command,
        "config": config,
        "seed": seed,
        "toolVersion": __version__,
        "inputHashes": {str(p): _sha256(p) for p in inputs},
        "outputPaths": [str(p) for p in outputs],
        "wallSeconds": wall,
    }
    path = Path(out_dir) / f"manifest_{command}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _stream_seed(*labels):
    """Derive one integer seed from the labeled stream."""
    return int(np.random.SeedSequence(list(labels)).generate_state(1)[0] & 0x7FFFFFFF)


def _load_instance(path):
    p = Path(path)
    if not p.is_file():
        raise DataError(f"instance file not found: {p}")
    try:
        inst = load(p.read_bytes())
    except InstanceFormatError as e:
        raise DataError(str(e)) from e
    problems = validate(inst)
    if problems:
        raise DataError(f"invalid instance {p}: {problems[0].message}")
    return inst


def _read_checkpoint(path):
    """(bytes, policy, optimizer state) of a checkpoint file.

    A missing, unreadable or malformed file is a DataError.
    """
    p = Path(path)
    if not p.is_file():
        raise DataError(f"checkpoint not found: {p}")
    data = p.read_bytes()
    try:
        policy, opt_state = load_policy(data)
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"cannot load checkpoint {p}: {e}") from e
    return data, policy, opt_state


def _metrics_row(path, solver, seed, sol, wall):
    m = sol.metrics
    return [str(path), solver, seed, f"{sol.reward:.6f}",
            f"{sol.objective:.6f}", f"{m['completion_pct']:.6f}",
            m["vehicles"], f"{m['load_factor']:.6f}", m["charge_visits"],
            f"{m['energy_per_vehicle_kwh']:.6f}", f"{m['wait_s']:.6f}",
            f"{m['late_s']:.6f}", f"{wall:.6f}"]


def _append_metrics(path, rows):
    path = Path(path)
    fresh = not path.exists()
    with open(path, "a", newline="") as fh:
        wr = csv.writer(fh)
        if fresh:
            wr.writerow(METRICS_COLUMNS)
        wr.writerows(rows)


# -- generate -------------------------------------------------------------------

def cmd_generate(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    fleet = FleetParams(vehicles=args.vehicles, capacity=args.capacity)
    written = []
    for i in range(args.count):
        inst = generate_instance(args.n, charger_count=args.chargers,
                                 fleet=fleet,
                                 seed=_stream_seed(args.seed, 1, i),
                                 asymmetry=args.asymmetry)
        path = out / f"instance_{i:04d}.json"
        path.write_bytes(save(inst))
        written.append(path)
    _write_manifest(out, "generate", _config_echo(args), args.seed, [], written,
                    time.time() - t0)
    print(f"wrote {len(written)} instances to {out}")
    return 0


# -- solve ----------------------------------------------------------------------

def _solve_one(task):
    path, solver, seed, opts = task
    inst = _load_instance(path)
    t0 = time.time()
    if solver == "greedy":
        sol = greedy_solve(inst)
    elif solver == "exact":
        try:
            sol, optimal = exact_solve(inst, limit=opts["limit"])
        except SearchLimitError as e:
            raise UsageError(f"{path}: {e}; raise --limit") from e
        if not optimal:
            print(f"warning: search limit hit on {path}; best found returned",
                  file=sys.stderr)
    elif solver == "alns":
        cfg = AlnsConfig(iterations=opts["iterations"], seed=seed,
                         telemetry_path=opts.get("telemetry"))
        sol = alns_solve(inst, cfg)
    else:
        policy, _ = load_policy(opts["checkpoint"])
        sol = multistart_rollout(policy, inst, k_p=opts["multistart"])
    wall = time.time() - t0
    if not np.isfinite(sol.reward) or not np.isfinite(sol.objective):
        raise NumericalError(f"non-finite objective for {path}")
    return path, sol, wall


def cmd_solve(args):
    ckpt_bytes = None
    if args.solver == "neural":
        if not args.checkpoint:
            raise UsageError("--checkpoint is required with --solver neural")
        ckpt_bytes, _, _ = _read_checkpoint(args.checkpoint)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    opts = {"iterations": args.iterations, "limit": args.limit,
            "checkpoint": ckpt_bytes, "multistart": args.multistart}
    tasks = []
    for i, path in enumerate(args.instances):
        seed = _stream_seed(args.seed, 2, i)
        topts = dict(opts)
        if args.telemetry:
            topts["telemetry"] = str(out / f"telemetry_{Path(path).stem}.csv")
        tasks.append((path, args.solver, seed, topts))

    if args.jobs > 1 and len(tasks) > 1:
        import multiprocessing as mp
        with mp.Pool(args.jobs) as pool:
            results = pool.map(_solve_one, tasks)
    else:
        results = [_solve_one(t) for t in tasks]

    rows = []
    outputs = []
    for (path, sol, wall), task in zip(results, tasks):
        sol_path = out / f"solution_{Path(path).stem}_{args.solver}.json"
        sol_path.write_bytes(save_solution(sol))
        outputs.append(sol_path)
        rows.append(_metrics_row(path, args.solver, task[2], sol, wall))
    metrics_path = out / args.metrics
    _append_metrics(metrics_path, rows)
    outputs.append(metrics_path)
    _write_manifest(out, "solve", _config_echo(args), args.seed,
                    list(args.instances), outputs, time.time() - t0)
    for row in rows:
        print(f"{row[0]}: reward {row[3]} completion {row[5]}%")
    return 0


# -- train ----------------------------------------------------------------------

TRAIN_BASE_KEYS = ("epochs", "steps_per_epoch", "batch", "k_p", "lr",
                   "beta1", "beta2", "eps_num", "grad_clip", "seed",
                   "val_size", "charger_count", "vehicles", "capacity",
                   "sizes")
TRAIN_KEYS = set(TRAIN_BASE_KEYS) | {"n", "curriculum", "epochs_per_stage",
                                     "d_h", "heads", "layers", "ffn_mult",
                                     "lambda", "kappa"}


def _train_configs(doc):
    unknown = sorted(set(doc) - TRAIN_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    pol = PolicyConfig(d_h=doc.get("d_h", 64), heads=doc.get("heads", 4),
                       layers=doc.get("layers", 4),
                       ffn_mult=doc.get("ffn_mult", 4),
                       lam=doc.get("lambda", 1.0),
                       kappa=doc.get("kappa", 10.0),
                       seed=doc.get("seed", 0))
    base = {k: doc[k] for k in TRAIN_BASE_KEYS if k in doc}
    return pol, base


def cmd_train(args):
    cfg_path = Path(args.config)
    if not cfg_path.is_file():
        raise DataError(f"config file not found: {cfg_path}")
    try:
        doc = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"malformed config JSON: {e}") from e
    pol_cfg, base = _train_configs(doc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    inputs = [cfg_path]

    policy = None
    opt_state = None
    start_epoch = 0
    if args.resume:
        _, policy, opt_state = _read_checkpoint(args.resume)
        hc = policy.config
        for name, want in (("d_h", pol_cfg.d_h), ("heads", pol_cfg.heads),
                           ("layers", pol_cfg.layers)):
            if getattr(hc, name) != want:
                raise UsageError(
                    f"config {name}={want} conflicts with checkpoint "
                    f"{name}={getattr(hc, name)}")
        if opt_state and "epoch" in opt_state:
            start_epoch = int(opt_state["epoch"])
        inputs.append(Path(args.resume))

    outputs = []
    if "curriculum" in doc:
        sizes = doc["curriculum"]
        if sizes is True:
            sizes = CURRICULUM_SIZES
        stage_base = dict(base)
        if doc.get("epochs_per_stage"):
            stage_base["epochs"] = doc["epochs_per_stage"]
        try:
            stage_cfgs = [TrainConfig(n=s, **stage_base) for s in sizes]
        except (TypeError, ValueError) as e:
            raise UsageError(str(e)) from e
        policy, results = curriculum_train(stage_cfgs, policy=policy,
                                           policy_config=pol_cfg)
        rep_path = out / "curriculum_report.csv"
        with open(rep_path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["size", "zero_shot", "best_val", "passed"])
            for r in results:
                wr.writerow([r.size, f"{r.zero_shot:.6f}",
                             f"{r.best_val:.6f}", r.passed])
        outputs.append(rep_path)
        ck_path = out / "checkpoint_final.json"
        from .policy import save_policy
        ck_path.write_bytes(save_policy(policy))
        outputs.append(ck_path)
    else:
        try:
            tcfg = TrainConfig(n=doc.get("n", 8), **base)
        except (TypeError, ValueError) as e:
            raise UsageError(str(e)) from e
        policy, report = train(tcfg, policy=policy, policy_config=pol_cfg,
                               opt_state=opt_state, start_epoch=start_epoch)
        best_path = out / "checkpoint_best.json"
        best_path.write_bytes(report.best_checkpoint)
        final_path = out / "checkpoint_final.json"
        final_path.write_bytes(report.final_checkpoint)
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
    path, ckpt_bytes, scale, replicas, seed, multistart = task
    inst = _load_instance(path)
    policy, _ = load_policy(ckpt_bytes)
    rows = []
    for r in range(replicas):
        noise = NoiseConfig.make(scale, _stream_seed(seed, 3, r))
        t0 = time.time()
        sol = multistart_rollout(policy, inst, k_p=multistart, noise=noise)
        wall = time.time() - t0
        rows.append((sol, wall))
    return path, rows


def cmd_eval(args):
    ckpt_bytes, _, _ = _read_checkpoint(args.checkpoint)
    inst_dir = Path(args.instances)
    paths = sorted(inst_dir.glob("instance_*.json")) if inst_dir.is_dir() \
        else [inst_dir]
    if not paths or (len(paths) == 1 and not paths[0].is_file()):
        raise DataError(f"no instances found under {args.instances}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    tasks = [(p, ckpt_bytes, args.stochastic, args.replicas,
              _stream_seed(args.seed, 4, i), args.multistart)
             for i, p in enumerate(paths)]
    if args.jobs > 1 and len(tasks) > 1:
        import multiprocessing as mp
        with mp.Pool(args.jobs) as pool:
            results = pool.map(_eval_one, tasks)
    else:
        results = [_eval_one(t) for t in tasks]

    rows = []
    per_instance = []
    for (path, reps), task in zip(results, tasks):
        for sol, wall in reps:
            rows.append(_metrics_row(path, "neural", task[4], sol, wall))
        per_instance.append([np.mean([s.reward for s, _ in reps]),
                             np.mean([s.objective for s, _ in reps]),
                             np.mean([s.metrics["completion_pct"] for s, _ in reps]),
                             np.mean([s.j_travel for s, _ in reps])])
    metrics_path = out / "eval_metrics.csv"
    _append_metrics(metrics_path, rows)
    agg = np.array(per_instance)
    summary_path = out / "eval_summary.csv"
    with open(summary_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["metric", "mean", "std"])
        for i, name in enumerate(["reward", "objective", "completion_pct",
                                  "travel_s"]):
            wr.writerow([name, f"{agg[:, i].mean():.6f}",
                         f"{agg[:, i].std():.6f}"])
    _write_manifest(out, "eval", _config_echo(args),
                    args.seed, [Path(args.checkpoint), *paths],
                    [metrics_path, summary_path],
                    time.time() - t0)
    print(f"evaluated {len(paths)} instances x {args.replicas} replicas; "
          f"mean reward {agg[:, 0].mean():.3f} +/- {agg[:, 0].std():.3f}")
    return 0


# -- report ---------------------------------------------------------------------

def cmd_report(args):
    rows = []
    for path in args.csvs:
        p = Path(path)
        if not p.is_file():
            raise DataError(f"metrics file not found: {p}")
        with open(p, newline="") as fh:
            rd = csv.DictReader(fh)
            if rd.fieldnames != METRICS_COLUMNS:
                raise DataError(f"{p} does not have the metrics column set")
            rows.extend(rd)
    if not rows:
        raise DataError("no metrics rows to aggregate")
    numeric = METRICS_COLUMNS[3:]
    by_solver = {}
    for row in rows:
        by_solver.setdefault(row["solver"], []).append(row)
    lines = [["solver", "count"] + [f"{c}_{s}" for c in numeric
                                    for s in ("mean", "std")]]
    for solver in sorted(by_solver):
        grp = by_solver[solver]
        line = [solver, str(len(grp))]
        for c in numeric:
            vals = np.array([float(r[c]) for r in grp])
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
    s.add_argument("--checkpoint")
    s.add_argument("--iterations", type=_at_least(int, 0), default=5000)
    s.add_argument("--limit", type=_at_least(int, 1), default=10_000_000)
    s.add_argument("--multistart", type=_at_least(int, 0), default=8)
    s.add_argument("--telemetry", action="store_true")
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
