import csv
import json

import numpy as np
import pytest

from edarp import cli
from edarp.cli import METRICS_COLUMNS, main

TINY_TRAIN = {"n": 2, "epochs": 1, "steps_per_epoch": 1, "batch": 2,
              "k_p": 2, "lr": 1e-3, "seed": 0, "val_size": 2,
              "d_h": 16, "heads": 2, "layers": 1}


def run(*argv):
    return main(list(argv))


def gen_dir(tmp_path, count=2, n=2, seed=0, name="inst"):
    out = tmp_path / name
    assert run("generate", "--out", str(out), "--n", str(n),
               "--count", str(count), "--seed", str(seed)) == 0
    return out


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_generate_writes_count_and_manifest(tmp_path):
    out = gen_dir(tmp_path, count=3)
    files = sorted(out.glob("instance_*.json"))
    assert [f.name for f in files] == [f"instance_{i:04d}.json"
                                       for i in range(3)]
    mani = json.loads((out / "manifest_generate.json").read_text())
    assert mani["schema"] == "edarp-manifest/1"
    assert mani["command"] == "generate"
    assert mani["seed"] == 0
    assert set(mani) >= {"config", "toolVersion", "inputHashes",
                         "outputPaths", "wallSeconds"}
    assert len(mani["outputPaths"]) == 3
    assert mani["config"]["n"] == 2


def test_generate_reproducible_bytes(tmp_path):
    a = gen_dir(tmp_path, count=2, seed=9, name="a")
    b = gen_dir(tmp_path, count=2, seed=9, name="b")
    for fa, fb in zip(sorted(a.glob("instance_*")), sorted(b.glob("instance_*"))):
        assert fa.read_bytes() == fb.read_bytes()
    c = gen_dir(tmp_path, count=1, seed=10, name="c")
    assert (c / "instance_0000.json").read_bytes() != \
        (a / "instance_0000.json").read_bytes()


def test_generate_rejects_bad_n(tmp_path, capsys):
    assert run("generate", "--out", str(tmp_path / "x"), "--n", "0") == 2
    assert "--n" in capsys.readouterr().err


def test_solve_exact_small_instance(tmp_path):
    out = gen_dir(tmp_path, count=1, n=1)
    sol_dir = tmp_path / "sols"
    inst = out / "instance_0000.json"
    assert run("solve", str(inst), "--solver", "exact",
               "--out", str(sol_dir)) == 0
    rows = read_csv(sol_dir / "metrics.csv")
    assert rows[0] == METRICS_COLUMNS
    assert len(rows) == 2
    row = dict(zip(METRICS_COLUMNS, rows[1]))
    assert row["solver"] == "exact"
    assert float(row["completion_pct"]) == 100.0
    assert (sol_dir / "solution_instance_0000_exact.json").is_file()
    mani = json.loads((sol_dir / "manifest_solve.json").read_text())
    assert str(inst) in mani["inputHashes"]


def test_solve_alns_not_worse_than_greedy(tmp_path):
    out = gen_dir(tmp_path, count=2, n=4, seed=5)
    sol_dir = tmp_path / "sols"
    insts = sorted(str(p) for p in out.glob("instance_*.json"))
    assert run("solve", *insts, "--solver", "greedy",
               "--out", str(sol_dir)) == 0
    assert run("solve", *insts, "--solver", "alns", "--iterations", "300",
               "--out", str(sol_dir)) == 0
    rows = read_csv(sol_dir / "metrics.csv")[1:]
    by = {}
    for r in rows:
        d = dict(zip(METRICS_COLUMNS, r))
        by[(d["instance"], d["solver"])] = float(d["reward"])
    for p in insts:
        assert by[(p, "alns")] >= by[(p, "greedy")] - 1e-9


def test_solve_neural_requires_checkpoint(tmp_path, capsys):
    out = gen_dir(tmp_path, count=1)
    inst = str(out / "instance_0000.json")
    assert run("solve", inst, "--solver", "neural") == 2
    assert "checkpoint" in capsys.readouterr().err
    assert run("solve", inst, "--solver", "neural",
               "--checkpoint", str(tmp_path / "missing.json")) == 2


def test_solve_missing_and_malformed_instance(tmp_path, capsys):
    assert run("solve", str(tmp_path / "nope.json"),
               "--solver", "greedy", "--out", str(tmp_path)) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("solve", str(bad), "--solver", "greedy",
               "--out", str(tmp_path)) == 3
    doc = json.loads((gen_dir(tmp_path) / "instance_0000.json").read_text())
    doc["fleet"]["initialSoc"] = 0.2
    bad.write_text(json.dumps(doc))
    assert run("solve", str(bad), "--solver", "greedy",
               "--out", str(tmp_path)) == 3
    assert "initialSoc" in capsys.readouterr().err


def test_solve_jobs_parallel_matches_serial(tmp_path):
    out = gen_dir(tmp_path, count=3, n=2, seed=2)
    insts = sorted(str(p) for p in out.glob("instance_*.json"))
    s1 = tmp_path / "serial"
    s2 = tmp_path / "parallel"
    assert run("solve", *insts, "--solver", "greedy", "--out", str(s1)) == 0
    assert run("solve", *insts, "--solver", "greedy", "--out", str(s2),
               "--jobs", "2") == 0
    r1 = read_csv(s1 / "metrics.csv")
    r2 = read_csv(s2 / "metrics.csv")
    skip = METRICS_COLUMNS.index("wall_s")
    assert [r[:skip] for r in r1] == [r[:skip] for r in r2]


def test_solve_nonfinite_reward_exits_4(tmp_path, monkeypatch, capsys):
    out = gen_dir(tmp_path, count=1)
    inst = str(out / "instance_0000.json")

    class FakeSol:
        reward = float("inf")
        objective = 1.0

    monkeypatch.setattr(cli, "greedy_solve", lambda i: FakeSol())
    assert run("solve", inst, "--solver", "greedy",
               "--out", str(tmp_path / "s")) == 4
    assert "non-finite" in capsys.readouterr().err


def test_solve_telemetry_written(tmp_path):
    out = gen_dir(tmp_path, count=1, n=2)
    sol_dir = tmp_path / "sols"
    assert run("solve", str(out / "instance_0000.json"), "--solver", "alns",
               "--iterations", "20", "--telemetry",
               "--out", str(sol_dir)) == 0
    tele = read_csv(sol_dir / "telemetry_instance_0000.csv")
    assert tele[0][0] == "iteration"
    assert len(tele) == 21


def test_train_smoke_and_artifacts(tmp_path):
    cfg = write_config(tmp_path, TINY_TRAIN)
    out = tmp_path / "run"
    assert run("train", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "checkpoint_best.json").is_file()
    assert (out / "checkpoint_final.json").is_file()
    report = (out / "train_report.csv").read_text().splitlines()
    assert report[0] == "epoch,trainLoss,valReward,valCompletion,gradNorm,seconds"
    assert len(report) == 3                  # epoch 0 and epoch 1
    mani = json.loads((out / "manifest_train.json").read_text())
    assert mani["config"] == TINY_TRAIN


def test_train_rejects_unknown_key_by_name(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(TINY_TRAIN, learning_rate=0.1))
    assert run("train", "--config", str(cfg), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "learning_rate" in err


def test_train_rejects_k_p_one(tmp_path):
    cfg = write_config(tmp_path, dict(TINY_TRAIN, k_p=1))
    assert run("train", "--config", str(cfg), "--out", str(tmp_path)) == 2


def test_train_resume_continues_numbering(tmp_path):
    cfg = write_config(tmp_path, TINY_TRAIN)
    out = tmp_path / "run"
    assert run("train", "--config", str(cfg), "--out", str(out)) == 0
    out2 = tmp_path / "run2"
    assert run("train", "--config", str(cfg), "--out", str(out2),
               "--resume", str(out / "checkpoint_final.json")) == 0
    lines = (out2 / "train_report.csv").read_text().splitlines()
    assert len(lines) == 2                   # no epoch-0 row on resume
    assert lines[1].split(",")[0] == "2"


def test_train_resume_rejects_architecture_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_TRAIN)
    out = tmp_path / "run"
    assert run("train", "--config", str(cfg), "--out", str(out)) == 0
    cfg2 = write_config(tmp_path, dict(TINY_TRAIN, d_h=32), name="c2.json")
    assert run("train", "--config", str(cfg2), "--out", str(tmp_path / "r2"),
               "--resume", str(out / "checkpoint_final.json")) == 2
    assert "d_h" in capsys.readouterr().err


def test_eval_deterministic_replicas_identical(tmp_path):
    cfg = write_config(tmp_path, TINY_TRAIN)
    run_dir = tmp_path / "run"
    assert run("train", "--config", str(cfg), "--out", str(run_dir)) == 0
    inst_dir = gen_dir(tmp_path, count=2, n=2, seed=4)
    out = tmp_path / "eval"
    assert run("eval", "--checkpoint", str(run_dir / "checkpoint_best.json"),
               "--instances", str(inst_dir), "--replicas", "2",
               "--stochastic", "0", "--out", str(out)) == 0
    rows = read_csv(out / "eval_metrics.csv")
    assert rows[0] == METRICS_COLUMNS
    body = rows[1:]
    assert len(body) == 4
    by_inst = {}
    for r in body:
        by_inst.setdefault(r[0], []).append(r[3])
    for rewards in by_inst.values():
        assert len(set(rewards)) == 1        # scale 0 means identical replicas
    summary = read_csv(out / "eval_summary.csv")
    assert summary[0] == ["metric", "mean", "std"]
    assert [r[0] for r in summary[1:]] == ["reward", "objective",
                                           "completion_pct", "travel_s"]


def test_eval_noise_objective_not_below_deterministic(tmp_path):
    cfg = write_config(tmp_path, TINY_TRAIN)
    run_dir = tmp_path / "run"
    assert run("train", "--config", str(cfg), "--out", str(run_dir)) == 0
    inst_dir = gen_dir(tmp_path, count=1, n=2, seed=6)
    det = tmp_path / "det"
    noisy = tmp_path / "noisy"
    ck = str(run_dir / "checkpoint_best.json")
    assert run("eval", "--checkpoint", ck, "--instances", str(inst_dir),
               "--stochastic", "0", "--out", str(det)) == 0
    assert run("eval", "--checkpoint", ck, "--instances", str(inst_dir),
               "--stochastic", "0.3", "--replicas", "3",
               "--out", str(noisy)) == 0
    d = read_csv(det / "eval_metrics.csv")[1:]
    nz = read_csv(noisy / "eval_metrics.csv")[1:]
    det_obj = float(d[0][4])
    # inflated traversals can only add cost for the same decisions; the
    # policy may still route differently, so compare energy via objective
    # on average rather than per replica
    assert np.mean([float(r[4]) for r in nz]) >= det_obj - 1e-6


def test_eval_missing_checkpoint(tmp_path):
    inst_dir = gen_dir(tmp_path, count=1)
    assert run("eval", "--checkpoint", str(tmp_path / "none.json"),
               "--instances", str(inst_dir), "--out", str(tmp_path)) == 3


def test_report_aggregates_by_solver(tmp_path, capsys):
    out = gen_dir(tmp_path, count=2, n=2, seed=8)
    sol_dir = tmp_path / "sols"
    insts = sorted(str(p) for p in out.glob("instance_*.json"))
    assert run("solve", *insts, "--solver", "greedy", "--out", str(sol_dir)) == 0
    assert run("solve", *insts, "--solver", "alns", "--iterations", "50",
               "--out", str(sol_dir)) == 0
    rep = tmp_path / "report.csv"
    assert run("report", str(sol_dir / "metrics.csv"), "--out", str(rep)) == 0
    rows = read_csv(rep)
    assert rows[0][:2] == ["solver", "count"]
    assert "reward_mean" in rows[0]
    solvers = {r[0]: r[1] for r in rows[1:]}
    assert solvers == {"alns": "2", "greedy": "2"}


def test_report_rejects_foreign_csv(tmp_path):
    bad = tmp_path / "other.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert run("report", str(bad)) == 3


def test_usage_error_on_unknown_solver(tmp_path):
    out = gen_dir(tmp_path, count=1)
    with pytest.raises(SystemExit) as ex:
        run("solve", str(out / "instance_0000.json"), "--solver", "sorcery")
    assert ex.value.code == 2
