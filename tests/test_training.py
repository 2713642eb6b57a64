import numpy as np
import pytest

from edarp import (Adam, CURRICULUM_SIZES, Env, Policy, PolicyConfig, Tape,
                   Tensor, TrainConfig, TrainReport, curriculum_train,
                   generate_instance, load_policy, pomo_advantages,
                   pomo_starts, reinforce_update, save_policy, train,
                   validation_set)
from edarp import autodiff as ad
from edarp.instance import normalize_features
from edarp.policy import rollout_episode
from edarp.training import clip_grad_norm
from edarp.training import validate as validate_policy

TINY_POLICY = dict(d_h=16, heads=2, layers=1, seed=0)


def tiny_cfg(**kw):
    base = dict(n=2, epochs=1, steps_per_epoch=2, batch=2, k_p=2,
                lr=1e-3, seed=0, val_size=4, charger_count=1)
    base.update(kw)
    return TrainConfig(**base)


def test_adam_scalar_step_matches_closed_form():
    w0, g, lr, b1, b2, eps = 0.7, 0.3, 1e-2, 0.9, 0.999, 1e-8
    p = Tensor(np.array([w0]))
    opt = Adam({"w": p}, lr=lr, beta1=b1, beta2=b2, eps=eps)
    p.grad = np.array([g])
    opt.step()
    m1 = (1 - b1) * g
    v1 = (1 - b2) * g * g
    want = w0 - lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
    assert p.data[0] == pytest.approx(want, abs=1e-15)

    p.grad = np.array([-g])
    opt.step()
    m2 = b1 * m1 + (1 - b1) * -g
    v2 = b2 * v1 + (1 - b2) * g * g
    want2 = want - lr * (m2 / (1 - b1 ** 2)) / (np.sqrt(v2 / (1 - b2 ** 2)) + eps)
    assert p.data[0] == pytest.approx(want2, abs=1e-15)


def test_adam_zero_or_missing_grad_is_a_no_op_on_params():
    p = Tensor(np.array([1.0, -2.0]))
    opt = Adam({"w": p})
    before = p.data.copy()
    p.grad = None
    opt.step()
    assert np.array_equal(p.data, before)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_state_round_trip():
    rng = np.random.default_rng(0)
    p1 = Tensor(rng.standard_normal(4))
    p2 = Tensor(p1.data.copy())
    o1 = Adam({"w": p1}, lr=1e-2)
    o2 = Adam({"w": p2}, lr=1e-2)
    g1 = rng.standard_normal(4)
    p1.grad = g1.copy()
    o1.step()
    o2.load_state({"t": o1.t, "m": o1.m, "v": o1.v})
    p2.data = p1.data.copy()
    g2 = rng.standard_normal(4)
    p1.grad = g2.copy()
    p2.grad = g2.copy()
    o1.step()
    o2.step()
    assert np.allclose(p1.data, p2.data, atol=1e-15)


def test_clip_grad_norm():
    p = Tensor(np.zeros(2))
    p.grad = np.array([3.0, 4.0])
    norm = clip_grad_norm({"w": p}, 1.0)
    assert norm == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(p.grad, np.array([0.6, 0.8]), atol=1e-12)
    p.grad = np.array([0.3, 0.4])
    norm = clip_grad_norm({"w": p}, 1.0)
    assert norm == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(p.grad, np.array([0.3, 0.4]), atol=1e-15)


def test_pomo_advantages():
    assert np.allclose(pomo_advantages([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0],
                       atol=1e-15)
    assert np.all(pomo_advantages([5.0, 5.0, 5.0, 5.0]) == 0.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        r = rng.standard_normal(rng.integers(2, 12)) * 40.0
        assert abs(pomo_advantages(r).sum()) <= 1e-9


def test_pomo_starts_ascending_and_truncated():
    inst = generate_instance(5, charger_count=1, seed=31)
    env = Env(inst)
    starts = pomo_starts(env, 3)
    assert len(starts) <= 3
    assert starts == sorted(starts)
    assert all(1 <= s <= env.n for s in starts)
    full = pomo_starts(env, 100)
    assert starts == full[:3]


def test_pomo_starts_fallback_without_feasible_pickups():
    from edarp import (CostWeights, EdgeMatrices, FleetParams, Instance,
                       Node)
    H = 14_400.0
    nodes = [
        Node(0.0, 0.0, 0.0, H, 0.0, 0),        # depot
        Node(1.0, 0.0, 0.0, 10.0, 30.0, 1),    # pickup; its window shuts early
        Node(2.0, 0.0, 0.0, H, 30.0, -1),      # delivery
        Node(3.0, 0.0, 0.0, H, 900.0, 0),      # charger
    ]
    t = np.full((4, 4), 100.0)
    np.fill_diagonal(t, 0.0)
    e = t * 0.01
    inst = Instance(nodes, EdgeMatrices(t, t * 10.0, e),
                    [H], FleetParams(vehicles=1), CostWeights(), H)
    starts = pomo_starts(Env(inst), 4)
    assert starts == [0]            # depot is all the mask leaves open


def test_update_invariant_to_trajectory_order_within_instance():
    policy = Policy(PolicyConfig(**TINY_POLICY))
    inst = generate_instance(3, charger_count=1, seed=77)
    env = Env(inst)
    feats = normalize_features(inst)
    starts = pomo_starts(env, 3)
    assert len(starts) >= 2

    def grads_for(order):
        policy.zero_grad()
        tape = Tape()
        enc = policy.encode(tape, feats)
        states, lps, _ = rollout_episode(policy, env, tape, starts=order, enc=enc)
        adv = pomo_advantages([env.solution(s).reward for s in states])
        loss = ad.scale(tape, ad.tsum(tape, ad.mul(tape, lps, Tensor(adv))),
                        -1.0 / len(order))
        tape.backward(loss)
        return {k: t.grad.copy() for k, t in policy.params.items()
                if t.grad is not None}

    fwd = grads_for(list(starts))
    rev = grads_for(list(reversed(starts)))
    assert set(fwd) == set(rev)
    for k in fwd:
        assert np.allclose(fwd[k], rev[k], rtol=1e-9, atol=1e-12), k


def test_reinforce_update_changes_params_and_reports():
    policy = Policy(PolicyConfig(**TINY_POLICY))
    opt = Adam(policy.params, lr=1e-3)
    rng = np.random.default_rng(0)
    batch = [generate_instance(2, charger_count=1, seed=s) for s in (1, 2)]
    before = {k: t.data.copy() for k, t in policy.params.items()}
    st = reinforce_update(policy, opt, batch, rng, k_p=2, grad_clip=1.0)
    assert not st.skipped
    assert np.isfinite(st.loss) and np.isfinite(st.grad_norm)
    assert any(not np.array_equal(before[k], policy.params[k].data)
               for k in before)
    assert all(t.grad is None for t in policy.params.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reinforce_update_skips_on_poisoned_params():
    policy = Policy(PolicyConfig(**TINY_POLICY))
    policy.params["embed_w"].data[0, 0] = np.nan
    snapshot = {k: t.data.copy() for k, t in policy.params.items()}
    opt = Adam(policy.params, lr=1e-3)
    rng = np.random.default_rng(0)
    batch = [generate_instance(2, charger_count=1, seed=3)]
    st = reinforce_update(policy, opt, batch, rng, k_p=2, grad_clip=1.0)
    assert st.skipped
    for k, saved in snapshot.items():
        assert np.array_equal(saved, policy.params[k].data, equal_nan=True)


def test_train_config_validation():
    with pytest.raises(ValueError, match="k_p"):
        tiny_cfg(k_p=1)


def test_zero_epochs_returns_initial_params_and_empty_rows():
    cfg = tiny_cfg(epochs=0)
    policy = Policy(PolicyConfig(**TINY_POLICY))
    snapshot = {k: t.data.copy() for k, t in policy.params.items()}
    out_policy, report = train(cfg, policy=policy)
    assert report.rows == []
    for k, saved in snapshot.items():
        assert np.array_equal(saved, out_policy.params[k].data)
    back, opt_state = load_policy(save_policy(out_policy, report.opt,
                                              report.epoch))
    assert opt_state["epoch"] == 0
    for k, saved in snapshot.items():
        assert np.array_equal(saved, back.params[k].data)


def test_train_deterministic_given_seed():
    kw = dict(policy_config=PolicyConfig(**TINY_POLICY))
    _, r1 = train(tiny_cfg(epochs=2), **kw)
    _, r2 = train(tiny_cfg(epochs=2), **kw)
    assert len(r1.rows) == len(r2.rows) == 3      # epoch 0 plus two epochs
    for a, b in zip(r1.rows, r2.rows):
        for key in ("epoch", "train_loss", "val_reward", "val_completion",
                    "grad_norm"):
            av, bv = a[key], b[key]
            if isinstance(av, float) and np.isnan(av):
                assert np.isnan(bv)
            else:
                assert av == bv, key


def test_train_epoch_zero_row_and_best_checkpoint():
    cfg = tiny_cfg(epochs=2)
    policy, report = train(cfg, policy_config=PolicyConfig(**TINY_POLICY))
    assert report.rows[0]["epoch"] == 0
    assert np.isnan(report.rows[0]["train_loss"])
    assert [r["epoch"] for r in report.rows] == [0, 1, 2]
    best = report.best_policy
    vals = [r["val_reward"] for r in report.rows]
    assert report.best_val == max(vals)
    got, _ = validate_policy(best, validation_set(cfg))
    assert got == pytest.approx(report.best_val, abs=1e-9)


def test_resume_continues_epoch_numbering():
    cfg = tiny_cfg(epochs=2)
    policy, report = train(cfg, policy_config=PolicyConfig(**TINY_POLICY))
    back, opt_state = load_policy(save_policy(policy, report.opt, report.epoch))
    assert opt_state["epoch"] == 2
    cfg2 = tiny_cfg(epochs=1)
    p2, r2 = train(cfg2, policy=back, opt_state=opt_state)
    assert [r["epoch"] for r in r2.rows] == [3]
    _, opt3 = load_policy(save_policy(p2, r2.opt, r2.epoch))
    assert opt3["epoch"] == 3


def test_report_csv_header():
    rep = TrainReport()
    vals = [3.0, 1.0, 4.0, 1.0, 5.0]
    rep.rows.append({"epoch": 0, "val_reward": 99.0,
                     "val_completion": 0.0, "train_loss": np.nan,
                     "grad_norm": np.nan, "seconds": 0.0})
    for i, v in enumerate(vals, start=1):
        rep.rows.append({"epoch": i, "val_reward": v,
                         "val_completion": 50.0, "train_loss": -0.1,
                         "grad_norm": 1.0, "seconds": float(i)})
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == \
        "epoch,trainLoss,valReward,valCompletion,gradNorm,seconds"
    assert len(csv_text.splitlines()) == 7


def test_validate_returns_reward_and_completion():
    policy = Policy(PolicyConfig(**TINY_POLICY))
    insts = [generate_instance(2, charger_count=1, seed=s) for s in (1, 2)]
    reward, completion = validate_policy(policy, insts)
    assert isinstance(reward, float) and isinstance(completion, float)
    assert 0.0 <= completion <= 100.0


def test_mixed_size_training_draws_from_sizes():
    cfg = tiny_cfg(epochs=1, sizes=[2, 3])
    policy, report = train(cfg, policy_config=PolicyConfig(**TINY_POLICY))
    assert len(report.rows) == 2                 # ran without size errors


def test_curriculum_two_stage_smoke():
    stages = [tiny_cfg(n=2, epochs=1), tiny_cfg(n=3, epochs=1)]
    policy, results = curriculum_train(
        stages, policy_config=PolicyConfig(**TINY_POLICY))
    assert [r.size for r in results] == [2, 3]
    for r in results:
        assert np.isfinite(r.zero_shot) and np.isfinite(r.best_val)
        assert r.passed == (r.best_val >= r.zero_shot - 0.05 * abs(r.zero_shot))
        assert r.best_val >= r.zero_shot - 1e-9   # keeps the incoming weights
    assert CURRICULUM_SIZES == [8, 10, 12, 14, 17, 21]


def test_curriculum_validates_once_per_epoch(monkeypatch):
    """A stage's zero-shot reward is train's own pre-update validation,
    not a second pass of the same weights over the same instances."""
    import edarp.training as training
    calls = []

    def counted(policy, instances):
        calls.append(len(instances))
        return validate_policy(policy, instances)

    monkeypatch.setattr(training, "validate", counted)
    stages = [tiny_cfg(n=2, epochs=1), tiny_cfg(n=3, epochs=2)]
    _, results = curriculum_train(stages, policy_config=PolicyConfig(**TINY_POLICY))
    assert len(calls) == (1 + 1) + (1 + 2)      # pre-update and one per epoch
    assert all(np.isfinite(r.zero_shot) for r in results)
