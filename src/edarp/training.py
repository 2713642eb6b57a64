"""Policy-gradient training with shared-baseline multi-start rollouts.

Each instance in a batch is rolled out from several distinct forced
first pickups, decoded in lock-step as one batch; the mean episode
reward of that group is its baseline, so advantages sum to zero per
group by construction. Gradients accumulate instance by instance (one
tape each, keeping peak memory at a single graph) and a clipped Adam
step applies once per batch. Training on one size hands its best
weights to the next size in the curriculum, which must stay within a
relative band of its zero-shot score to count as a transfer. Training
builds no checkpoint bytes; callers write what it returns with save_policy.
"""

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .environment import Env
from .instance import FleetParams, generate_instance, normalize_features
from .policy import (Policy, PolicyConfig, greedy_rollout, pomo_starts,
                     require, rollout_episode)

CURRICULUM_SIZES = [8, 10, 12, 14, 17, 21]
PASS_BAND = 0.05            # a stage may end this far (relative) below its zero-shot


class Adam:
    """Bias-corrected Adam over a named parameter dict."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def load_state(self, st):
        """Continue from the optimizer state load_policy returns."""
        self.t = st["t"]
        for k in self.m:
            self.m[k][...] = st["m"][k]
            self.v[k][...] = st["v"][k]


def clip_grad_norm(params, max_norm):
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    total = np.sqrt(total)
    if np.isfinite(total) and total > max_norm:
        s = max_norm / total
        for p in params.values():
            if p.grad is not None:
                p.grad *= s
    return float(total)


def pomo_advantages(rewards):
    """Shared-baseline advantages; sums to zero within each group."""
    r = np.asarray(rewards, dtype=np.float64)
    return r - r.mean()


@dataclass
class UpdateStats:
    loss: float = 0.0
    grad_norm: float = 0.0
    skipped: bool = False


def reinforce_update(policy, opt, instances, rng, k_p, grad_clip):
    """One batch update; gradients accumulate per instance.

    A non-finite loss or gradient aborts the whole update with the
    parameters untouched.
    """
    policy.zero_grad()
    total_loss = 0.0
    try:
        for inst in instances:
            env = Env(inst)
            feats = normalize_features(inst)
            tape = ad.Tape()
            enc = policy.encode(tape, feats)
            starts = pomo_starts(env, k_p)
            states, lps, _ = rollout_episode(policy, env, tape, rng=rng,
                                             starts=starts, enc=enc)
            adv = pomo_advantages([env.solution(s).reward for s in states])
            weighted = ad.mul(tape, lps, ad.Tensor(adv))
            loss = ad.scale(tape, ad.tsum(tape, weighted),
                            -1.0 / (len(starts) * len(instances)))
            tape.backward(loss)
            total_loss += float(loss.data)
    except FloatingPointError:
        policy.zero_grad()
        return UpdateStats(skipped=True)
    norm = clip_grad_norm(policy.params, grad_clip)
    if not np.isfinite(norm):
        policy.zero_grad()
        return UpdateStats(skipped=True)
    opt.step()
    policy.zero_grad()
    return UpdateStats(loss=total_loss, grad_norm=norm)


@dataclass
class TrainConfig:
    n: int = 8
    epochs: int = 10
    steps_per_epoch: int = 25
    batch: int = 32
    k_p: int = 8
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps_num: float = 1e-8
    grad_clip: float = 1.0
    seed: int = 0
    val_size: int = 64
    charger_count: int = 1
    vehicles: int = 2
    capacity: int = 3
    sizes: list = None          # mixed-size training: n sampled uniformly

    def __post_init__(self):
        # k_p >= 2: the shared baseline needs more than one rollout
        for name, lo in (("n", 1), ("epochs", 0), ("steps_per_epoch", 1),
                         ("batch", 1), ("k_p", 2), ("seed", 0), ("val_size", 1),
                         ("charger_count", 1), ("vehicles", 1), ("capacity", 1)):
            require(name, getattr(self, name), lo, integer=True)
        for name in ("lr", "eps_num", "grad_clip"):
            require(name, getattr(self, name), 0, above=True)
        for name in ("beta1", "beta2"):
            require(name, getattr(self, name), 0, below=1)
        if not isinstance(self.sizes or [], list):
            raise ValueError(f"sizes must be a list, got {self.sizes!r}")
        for size in self.sizes or []:
            require("sizes entry", size, 1, integer=True)


@dataclass
class TrainReport:
    rows: list = field(default_factory=list)   # dicts, one per epoch
    start_val: float = -np.inf                 # validation reward before any update
    best_val: float = -np.inf
    best_policy: Policy = None                 # a copy of the best weights
    opt: Adam = None                           # the optimizer, as training left it
    epoch: int = 0                             # epochs done, resumed ones included

    def to_csv(self):
        head = ["epoch", "trainLoss", "valReward", "valCompletion",
                "gradNorm", "seconds"]
        cols = ["epoch", "train_loss", "val_reward", "val_completion",
                "grad_norm", "seconds"]
        lines = [",".join(head)]
        for r in self.rows:
            lines.append(",".join(f"{r[c]:.6f}" if isinstance(r[c], float)
                                  else str(r[c]) for c in cols))
        return "\n".join(lines) + "\n"


def _make_instance(cfg, seed, n=None):
    fleet = FleetParams(vehicles=cfg.vehicles, capacity=cfg.capacity)
    return generate_instance(cfg.n if n is None else n,
                             charger_count=cfg.charger_count, fleet=fleet,
                             seed=seed)


def validation_set(cfg):
    base = cfg.seed * 1_000_003 + 777_000_000 + cfg.n
    return [_make_instance(cfg, base + i) for i in range(cfg.val_size)]


def validate(policy, instances):
    """Greedy-decode the held-out set; returns (mean reward, mean completion %)."""
    sols = [greedy_rollout(policy, inst) for inst in instances]
    return (float(np.mean([s.reward for s in sols])),
            float(np.mean([s.metrics["completion_pct"] for s in sols])))


def train(cfg, policy=None, policy_config=None, opt_state=None):
    """Train on one size; epoch 0 records the pre-update validation.

    Resuming passes the checkpoint's optimizer state, which holds the
    number of epochs already done, so epoch numbering continues
    seamlessly. The report keeps the best weights, the optimizer and the
    epoch count, which save_policy needs for the best and final
    checkpoints.
    """
    start_epoch = opt_state["epoch"] if opt_state is not None else 0
    if policy is None:
        policy = Policy(policy_config or PolicyConfig(seed=cfg.seed))
    opt = Adam(policy.params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
               eps=cfg.eps_num)
    if opt_state is not None:
        opt.load_state(opt_state)
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, cfg.n, 17, start_epoch]))
    val = validation_set(cfg)

    t0 = time.time()
    v0, c0 = validate(policy, val)
    report = TrainReport(start_val=v0, best_val=v0,
                         best_policy=copy.deepcopy(policy),
                         opt=opt, epoch=start_epoch + cfg.epochs)
    if start_epoch == 0 and cfg.epochs > 0:
        report.rows.append({"epoch": 0, "val_reward": v0, "val_completion": c0,
                            "train_loss": float("nan"),
                            "grad_norm": float("nan"),
                            "seconds": time.time() - t0})

    inst_seed = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, cfg.n, 23, start_epoch]))
    for epoch in range(start_epoch + 1, start_epoch + cfg.epochs + 1):
        losses, norms = [], []
        for _ in range(cfg.steps_per_epoch):
            ns = (cfg.sizes[inst_seed.integers(len(cfg.sizes))]
                  if cfg.sizes else None)
            batch = [_make_instance(cfg, int(inst_seed.integers(2 ** 31)), n=ns)
                     for _ in range(cfg.batch)]
            st = reinforce_update(policy, opt, batch, rng, cfg.k_p,
                                  cfg.grad_clip)
            if not st.skipped:
                losses.append(st.loss)
                norms.append(st.grad_norm)
        vr, vc = validate(policy, val)
        report.rows.append({"epoch": epoch, "val_reward": vr, "val_completion": vc,
                            "train_loss": float(np.mean(losses)) if losses else float("nan"),
                            "grad_norm": float(np.mean(norms)) if norms else float("nan"),
                            "seconds": time.time() - t0})
        if vr >= report.best_val:
            report.best_val = vr
            report.best_policy = copy.deepcopy(policy)
    return policy, report


@dataclass
class StageResult:
    size: int
    zero_shot: float
    best_val: float
    passed: bool


def curriculum_train(stage_cfgs, policy_config=None):
    """Train through increasing sizes, keeping each stage's best weights.

    A stage passes when its best validation reward stays within
    PASS_BAND (relative) below the incoming policy's zero-shot reward on
    the new size (transfer must not regress), and fine-tuning usually
    pushes it above.
    """
    results = []
    policy = None
    for cfg in stage_cfgs:
        if policy is None:
            policy = Policy(policy_config or PolicyConfig(seed=cfg.seed))
        policy, report = train(cfg, policy=policy)
        zero, best = report.start_val, report.best_val
        passed = best >= zero - PASS_BAND * abs(zero)
        results.append(StageResult(cfg.n, zero, best, passed))
        policy = report.best_policy
    return policy, results
