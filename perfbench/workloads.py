"""The benchmark's workloads, each driving the public `edarp` CLI in-process.

A workload generates its inputs from the workload seed in `setup` and
splits them into chunks; `run` makes one timed pass of CLI calls over
one chunk and `check` verifies what the pass wrote. A sweep is one pass
over every chunk. Chunks are short (one to three seconds) so that the
host's speed can be measured around each pass (run.HostClock). `check`
never raises on a bad output: it counts the ops that failed and says
why in `problems`.

Import this module only after the BLAS thread variables are set and
`src` is on the path (run.py does both).
"""

import contextlib
import csv
import inspect
import io
import json
import math
import time
import traceback
from pathlib import Path

import edarp.cli
import edarp.environment
import edarp.instance
import edarp.policy
import edarp.training

from tracing import patch_everywhere

REL_TOL = 1e-9


def cli(argv):
    """Run `edarp <argv>` in-process; returns (exit code, stderr text).

    An exception escaping the CLI is reported as exit code -1 with its
    traceback, and an argument error as argparse's exit code, so the
    benchmark can count the failure and go on.
    """
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = edarp.cli.main([str(a) for a in argv])
    except SystemExit as e:
        code = e.code
    except Exception:
        err.write(traceback.format_exc())
        code = -1
    return code, err.getvalue()


def generate(out, n, count, seed):
    code, err = cli(["generate", "--out", out, "--n", n, "--count", count,
                     "--seed", seed])
    if code != 0:
        raise RuntimeError(f"edarp generate failed ({code}): {err.strip()}")
    return sorted(Path(out).glob("instance_*.json"))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rescore(inst_path, sol_path):
    """Reward of a written solution after replaying it on its instance.

    Returns (reward, problem); problem is None when the replay
    reproduces the reward the solver wrote.
    """
    name = Path(sol_path).name
    try:
        inst = edarp.instance.load(Path(inst_path).read_bytes())
        sol = edarp.environment.load_solution(Path(sol_path).read_bytes())
        _, reward, _ = edarp.environment.score_solution(sol, inst)
    except Exception as e:  # any failure to re-score counts against the op
        return None, f"{name}: re-score failed: {e!r}"
    if not (math.isfinite(sol.reward) and math.isfinite(sol.objective)):
        return None, f"{name}: non-finite objective"
    if abs(reward - sol.reward) > REL_TOL * max(1.0, abs(sol.reward)):
        return None, f"{name}: reward {sol.reward!r} re-scores to {reward!r}"
    return sol.reward, None


class PassResult:
    """What one timed pass did, as the checks saw it."""

    def __init__(self):
        self.attempted = 0      # ops
        self.failed = 0         # ops
        self.item_walls = []    # seconds, one per item
        self.rewards = []       # one per item, in a fixed order
        self.problems = []

    def fail(self, ops, why):
        self.failed += ops
        self.problems.append(why)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.item_walls += other.item_walls
        self.rewards += other.rewards
        self.problems += other.problems


class Workload:
    name = ""
    why = ""
    sizes = {}

    def __init__(self, scale="full"):
        self.size = self.sizes[scale]

    def setup(self, work, seed):
        """Write the inputs under `work`; returns the context for run/check,
        whose "chunks" list holds one entry per pass of a sweep."""
        raise NotImplementedError

    def run(self, ctx, chunk, out, between_items=None):
        """The timed pass over one chunk; returns whatever `check` needs
        besides files. `between_items`, when given, is called between
        items of a long pass and is not part of any item's wall."""
        raise NotImplementedError

    def check(self, ctx, chunk, out, raw):
        raise NotImplementedError


def chunked(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def _solve_items(out, paths, solver, metrics):
    """Re-score every solution a solve pass wrote.

    Returns {instance path: (reward, wall seconds)}, with a problem
    string in place of the pair for each instance that failed.
    """
    try:
        rows = {row["instance"]: row for row in read_rows(Path(out) / metrics)}
    except OSError as e:
        return {str(p): f"{metrics}: {e}" for p in paths}
    found = {}
    for path in paths:
        row = rows.get(str(path))
        if row is None:
            found[str(path)] = f"{path.name}: no {solver} metrics row"
            continue
        reward, problem = rescore(path, Path(out) / f"solution_{path.stem}_{solver}.json")
        found[str(path)] = problem or (reward, float(row["wall_s"]))
    return found


class AlnsN40(Workload):
    name = "alns-n40"
    why = ("ALNS at a fixed iteration count on seeded n=40 instances: "
           "routes, ALNS operators and replay do the work, the policy "
           "and autodiff layers are never called")
    # 0.7 s per instance on a 2-CPU Xeon VM, so a chunk of 2 is a 1.5 s pass
    sizes = {"full": {"n": 40, "count": 30, "iterations": 40, "chunk": 2},
             "tiny": {"n": 8, "count": 2, "iterations": 12, "chunk": 1}}

    def setup(self, work, seed):
        s = self.size
        paths = generate(work / "instances", s["n"], s["count"], seed)
        cli(["solve", paths[0], "--solver", "alns", "--iterations", 2,
             "--out", work / "warmup", "--seed", seed])
        return {"chunks": chunked(paths, s["chunk"]), "seed": seed}

    def run(self, ctx, chunk, out, between_items=None):
        return cli(["solve", *chunk, "--solver", "alns",
                    "--iterations", self.size["iterations"], "--out", out,
                    "--seed", ctx["seed"], "--jobs", 1])

    def check(self, ctx, chunk, out, raw):
        code, err = raw
        per_item = self.size["iterations"]
        res = PassResult()
        res.attempted = per_item * len(chunk)
        if code != 0:
            res.fail(res.attempted, f"edarp solve exited {code}: {err[-500:]}")
            return res
        for item in _solve_items(out, chunk, "alns", "metrics.csv").values():
            if isinstance(item, str):
                res.fail(per_item, item)
            else:
                res.rewards.append(item[0])
                res.item_walls.append(item[1])
        return res


class ExactN5(Workload):
    name = "exact-n5"
    why = ("greedy then the exact oracle on many tiny n=5 K=2 instances: "
           "millions of small Env.mask/step/clone calls, instance JSON "
           "loads and the CLI's CSV and manifest writes")
    # 36 ms per instance on a 2-CPU Xeon VM, so a chunk of 40 is a 1.5 s pass
    sizes = {"full": {"n": 5, "count": 400, "chunk": 40},
             "tiny": {"n": 3, "count": 12, "chunk": 6}}

    def setup(self, work, seed):
        paths = generate(work / "instances", self.size["n"], self.size["count"], seed)
        cli(["solve", paths[0], "--solver", "exact", "--out", work / "warmup"])
        return {"chunks": chunked(paths, self.size["chunk"])}

    def run(self, ctx, chunk, out, between_items=None):
        greedy = cli(["solve", *chunk, "--solver", "greedy",
                      "--out", out, "--metrics", "greedy.csv", "--jobs", 1])
        exact = cli(["solve", *chunk, "--solver", "exact",
                     "--out", out, "--metrics", "exact.csv", "--jobs", 1])
        return greedy, exact

    def check(self, ctx, chunk, out, raw):
        res = PassResult()
        res.attempted = len(chunk)
        for solver, (code, err) in zip(("greedy", "exact"), raw):
            if code != 0:
                res.fail(res.attempted, f"{solver} exited {code}: {err[-500:]}")
                return res
        limit_hits = {line.split(" on ", 1)[1].split(";")[0]
                      for line in raw[1][1].splitlines()
                      if "search limit hit" in line}
        greedy = _solve_items(out, chunk, "greedy", "greedy.csv")
        exact = _solve_items(out, chunk, "exact", "exact.csv")
        for path in chunk:
            key = str(path)
            problem = next((x for x in (greedy[key], exact[key]) if isinstance(x, str)),
                           f"{path.name}: oracle search limit hit" if key in limit_hits else None)
            if problem:
                res.fail(1, problem)
                continue
            (g_reward, g_wall), (x_reward, x_wall) = greedy[key], exact[key]
            if x_reward < g_reward - REL_TOL * max(1.0, abs(g_reward)):
                res.fail(1, f"{path.name}: exact reward {x_reward!r} below greedy {g_reward!r}")
                continue
            res.rewards.append(x_reward)
            res.item_walls.append(g_wall + x_wall)
        return res


class EvalN40(Workload):
    name = "eval-n40"
    why = ("noisy multi-start evaluation of a default-size checkpoint on "
           "n=40 instances: the untaped Policy.encode forward dominates "
           "and each instance is re-encoded per replica")
    sizes = {"full": {"n": 40, "count": 8, "replicas": 3, "multistart": 8},
             "tiny": {"n": 5, "count": 2, "replicas": 2, "multistart": 2}}

    def setup(self, work, seed):
        s = self.size
        paths = generate(work / "instances", s["n"], s["count"], seed)
        ckpt = work / "checkpoint.json"
        policy = edarp.policy.Policy(edarp.policy.PolicyConfig(seed=0))
        ckpt.write_bytes(edarp.policy.save_policy(policy))
        generate(work / "warmup", 3, 1, seed)
        cli(["eval", "--checkpoint", ckpt, "--instances", work / "warmup",
             "--multistart", 1, "--out", work / "warmup"])
        # one instance (all its replicas, about 2.3 s on a 2-CPU Xeon VM) per pass
        return {"chunks": paths, "checkpoint": ckpt, "seed": seed}

    def run(self, ctx, chunk, out, between_items=None):
        s = self.size
        return cli(["eval", "--checkpoint", ctx["checkpoint"],
                    "--instances", chunk, "--stochastic", 0.1,
                    "--replicas", s["replicas"], "--multistart", s["multistart"],
                    "--out", out, "--seed", ctx["seed"], "--jobs", 1])

    def check(self, ctx, chunk, out, raw):
        code, err = raw
        res = PassResult()
        res.attempted = self.size["replicas"]
        if code != 0:
            res.fail(res.attempted, f"edarp eval exited {code}: {err[-500:]}")
            return res
        try:
            rows = read_rows(Path(out) / "eval_metrics.csv")
        except OSError as e:
            res.fail(res.attempted, f"eval_metrics.csv: {e}")
            return res
        for row in rows:
            reward, objective = float(row["reward"]), float(row["objective"])
            if math.isfinite(reward) and math.isfinite(objective):
                res.rewards.append(reward)
                res.item_walls.append(float(row["wall_s"]))
            else:
                res.fail(1, f"{Path(row['instance']).name}: non-finite row")
        missing = res.attempted - len(rows)
        if missing:
            res.fail(missing, f"{missing} of {res.attempted} eval rows missing")
        return res


class UpdateProbe:
    """Times each REINFORCE update and keeps its batch, from outside.

    Wraps `training.reinforce_update` at every binding site for one
    pass. Costs one clock read per update, so it stays on in untimed
    and traced runs alike. `after` (if given) is called after each
    update, outside its wall.
    """

    def __init__(self, after=None):
        self.walls = []
        self.batches = []     # (instances, k_p) per update
        self.skipped = 0
        self._after = after
        self._undo = []

    def __enter__(self):
        target = edarp.training.reinforce_update
        sig = inspect.signature(target)

        def probe(*args, **kwargs):
            t0 = time.perf_counter()
            stats = target(*args, **kwargs)
            self.walls.append(time.perf_counter() - t0)
            bound = sig.bind(*args, **kwargs).arguments
            self.batches.append((list(bound["instances"]), bound["k_p"]))
            self.skipped += bool(stats.skipped)
            if self._after is not None:
                self._after()
            return stats

        self._undo = [(mod, attr, target)
                      for mod, attr in patch_everywhere(target, probe)]
        return self

    def __exit__(self, *exc):
        for mod, attr, target in self._undo:
            setattr(mod, attr, target)
        return False


class TrainN10(Workload):
    name = "train-n10"
    why = ("one REINFORCE epoch at n=10 with the default policy size: "
           "taped encode, sampled decode_step, backward and Adam dominate; "
           "routes and ALNS are never called")
    sizes = {"full": {"n": 10, "steps": 14, "batch": 4, "k_p": 8, "val": 8},
             "tiny": {"n": 4, "steps": 2, "batch": 2, "k_p": 2, "val": 2,
                      "d_h": 16, "layers": 1}}

    def setup(self, work, seed):
        s = self.size
        doc = {"n": s["n"], "epochs": 1, "steps_per_epoch": s["steps"],
               "batch": s["batch"], "k_p": s["k_p"], "val_size": s["val"],
               "seed": seed}
        for key in ("d_h", "layers"):
            if key in s:
                doc[key] = s[key]
        config = work / "train.json"
        work.mkdir(parents=True, exist_ok=True)
        config.write_text(json.dumps(doc))
        warm = work / "warmup.json"
        warm.write_text(json.dumps({"n": 3, "epochs": 1, "steps_per_epoch": 1,
                                    "batch": 1, "k_p": 2, "val_size": 1,
                                    "d_h": 8, "heads": 2, "layers": 1,
                                    "seed": seed}))
        cli(["train", "--config", warm, "--out", work / "warmup"])
        # one epoch (about 11 s on a 2-CPU Xeon VM) per pass; the host's speed is
        # measured between its updates instead
        return {"chunks": [config]}

    def run(self, ctx, chunk, out, between_items=None):
        with UpdateProbe(between_items) as probe:
            code, err = cli(["train", "--config", chunk, "--out", out])
        return code, err, probe

    def check(self, ctx, chunk, out, raw):
        code, err, probe = raw
        res = PassResult()
        # an op is one sampled rollout: one per distinct forced start
        rollouts = sum(len(edarp.training.pomo_starts(edarp.environment.Env(inst), k_p))
                       for insts, k_p in probe.batches for inst in insts)
        s = self.size
        res.attempted = rollouts or s["steps"] * s["batch"] * s["k_p"]
        if code != 0:
            res.fail(res.attempted, f"edarp train exited {code}: {err[-500:]}")
            return res
        if len(probe.walls) != self.size["steps"]:
            res.fail(res.attempted, f"{len(probe.walls)} updates, "
                                    f"expected {self.size['steps']}")
            return res
        if probe.skipped:
            res.fail(res.attempted, f"{probe.skipped} REINFORCE updates skipped")
            return res
        try:
            rows = read_rows(Path(out) / "train_report.csv")
            last = rows[-1]
            loss, val = float(last["trainLoss"]), float(last["valReward"])
        except (OSError, IndexError, KeyError, ValueError) as e:
            res.fail(res.attempted, f"train_report.csv unreadable: {e!r}")
            return res
        if not (math.isfinite(loss) and math.isfinite(val)):
            res.fail(res.attempted, f"NaN in train report: loss {loss} val {val}")
            return res
        for name in ("checkpoint_best.json", "checkpoint_final.json"):
            if not (Path(out) / name).is_file():
                res.fail(res.attempted, f"{name} missing")
                return res
        res.item_walls = list(probe.walls)
        res.rewards = [val]
        return res


WORKLOADS = {w.name: w for w in (AlnsN40, TrainN10, EvalN40, ExactN5)}
