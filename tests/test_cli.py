import base64
import csv
import json
import os
import re

import numpy as np
import pytest

from edarp import (FleetParams, Policy, PolicyConfig, alns_solve, cli,
                   generate_instance, save, save_policy)
from edarp.environment import Solution, battery_shortfalls
from edarp.cli import METRICS_COLUMNS, main
from edarp.policy import SCHEMA_POLICY, multistart_rollout

TINY_TRAIN = {"n": 2, "epochs": 1, "steps_per_epoch": 1, "batch": 2,
              "k_p": 2, "lr": 1e-3, "seed": 0, "val_size": 2,
              "d_h": 16, "heads": 2, "layers": 1}


def run(*argv):
    return main(list(argv))


def exit_code(*argv):
    """Exit status of `edarp <argv>`, returned by main or raised by argparse."""
    try:
        return main(list(argv))
    except SystemExit as e:
        return e.code


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
    assert exit_code("generate", "--out", str(tmp_path / "x"), "--n", "0") == 2
    assert "--n" in capsys.readouterr().err


EVAL = ["eval", "--checkpoint", "{inst}", "--instances", "{inst}"]


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--n", "2", "--count", "0"], "--count"),
    (["generate", "--n", "2", "--chargers", "0"], "--chargers"),
    (["generate", "--n", "2", "--vehicles", "0"], "--vehicles"),
    (["generate", "--n", "2", "--capacity", "0"], "--capacity"),
    (["generate", "--n", "2", "--asymmetry", "-2"], "--asymmetry"),
    (["generate", "--n", "2", "--seed", "-1"], "--seed"),
    (["solve", "{inst}", "--solver", "exact", "--limit", "0"], "--limit"),
    (["solve", "{inst}", "--solver", "exact", "--limit", "1"], "--limit"),
    (["solve", "{inst}", "--solver", "alns", "--iterations", "-1"], "--iterations"),
    (["solve", "{inst}", "--solver", "neural", "--multistart", "-3"], "--multistart"),
    (["solve", "{inst}", "--solver", "greedy", "--jobs", "0"], "--jobs"),
    (EVAL + ["--stochastic", "-0.5"], "--stochastic"),
    (EVAL + ["--stochastic", "nan"], "--stochastic"),
    (EVAL + ["--replicas", "0"], "--replicas"),
    (EVAL + ["--multistart", "-3"], "--multistart"),
    (["generate", "--n", "10", "--count", "3", "--asymmetry", "10"], "--asymmetry"),
])
def test_out_of_range_flag_exits_2(tmp_path, capsys, argv, flag):
    inst = gen_dir(tmp_path, count=1) / "instance_0000.json"
    argv = [a.format(inst=inst) for a in argv] + ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert exit_code(*argv) == 2
    assert flag in capsys.readouterr().err
    assert not any((tmp_path / "out").glob("*"))


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
    # flags of other solvers are absent and echo their defaults
    assert {k: mani["config"][k] for k in cli.SOLVER_FLAGS} == {
        "iterations": 5000, "telemetry": False, "limit": 10_000_000,
        "checkpoint": None, "multistart": 8}


@pytest.mark.parametrize("solver, extra, flags", [
    ("greedy", ["--telemetry"], ["--telemetry"]),
    ("greedy", ["--checkpoint", "/nonexistent.json", "--iterations", "3"],
     ["--checkpoint", "--iterations"]),
    ("alns", ["--limit", "5", "--multistart", "3"], ["--limit", "--multistart"]),
    ("alns", ["--checkpoint", "/nonexistent.json"], ["--checkpoint"]),
    ("exact", ["--iterations", "0"], ["--iterations"]),
    ("exact", ["--telemetry"], ["--telemetry"]),
    ("neural", ["--limit", "5"], ["--limit"]),
    ("neural", ["--iterations", "3"], ["--iterations"]),
])
def test_solve_refuses_flags_of_other_solvers(tmp_path, capsys, solver, extra, flags):
    inst = gen_dir(tmp_path, count=1) / "instance_0000.json"
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("solve", str(inst), "--solver", solver, *extra,
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags)
    assert not out.exists()


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


def test_solve_takes_the_directory_generate_wrote(tmp_path, capsys):
    # generate writes its manifest beside the instances; solve reads the
    # directory's instance_*.json, as eval --instances does
    out = gen_dir(tmp_path, count=3)
    sol_dir = tmp_path / "sols"
    assert run("solve", str(out), "--solver", "greedy",
               "--out", str(sol_dir)) == 0
    insts = sorted(str(p) for p in out.glob("instance_*.json"))
    assert [r[0] for r in read_csv(sol_dir / "metrics.csv")[1:]] == insts
    mani = json.loads((sol_dir / "manifest_solve.json").read_text())
    assert sorted(mani["inputHashes"]) == insts
    for i in range(3):
        assert (sol_dir / f"solution_instance_{i:04d}_greedy.json").is_file()
    empty = tmp_path / "empty"
    empty.mkdir()
    capsys.readouterr()
    assert run("solve", str(empty), "--solver", "greedy",
               "--out", str(tmp_path / "none")) == 3
    assert "no instances found" in capsys.readouterr().err


def test_solve_neural_requires_checkpoint(tmp_path, capsys):
    out = gen_dir(tmp_path, count=1)
    inst = str(out / "instance_0000.json")
    assert run("solve", inst, "--solver", "neural") == 2
    assert "checkpoint" in capsys.readouterr().err
    assert run("solve", inst, "--solver", "neural",
               "--checkpoint", str(tmp_path / "missing.json")) == 3


def _checkpoint_without_seed():
    doc = json.loads(save_policy(Policy(PolicyConfig(d_h=16, heads=2, layers=1))))
    del doc["header"]["seed"]
    return json.dumps(doc)


@pytest.mark.parametrize("content, message", [
    (None, "checkpoint not found"),
    ("{not json", "cannot load checkpoint"),
    ("[1, 2]", "cannot load checkpoint"),
    pytest.param(json.dumps({"schema": SCHEMA_POLICY,
                             "header": {"dH": 16, "heads": 2, "layers": 1,
                                        "ffnMult": 4, "lambda": 1.0,
                                        "kappa": 10.0, "seed": 0},
                             "params": [1, 2]}),
                 "params must be an object", id="params-list"),
    pytest.param(_checkpoint_without_seed(), "'seed'", id="header-without-seed"),
])
@pytest.mark.parametrize("command", ["solve", "train", "eval"])
def test_bad_checkpoint_exits_3(tmp_path, capsys, command, content, message):
    inst_dir = gen_dir(tmp_path, count=1)
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    argv = {"solve": ["solve", str(inst_dir / "instance_0000.json"),
                      "--solver", "neural", "--checkpoint", str(bad)],
            "train": ["train", "--config", str(write_config(tmp_path, TINY_TRAIN)),
                      "--resume", str(bad)],
            "eval": ["eval", "--checkpoint", str(bad), "--instances", str(inst_dir)]}
    assert run(*argv[command], "--out", str(tmp_path / "out")) == 3
    assert message in capsys.readouterr().err


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
    # a missing or non-integer count is refused, never truncated, and an
    # unknown key is refused, never ignored
    out = tmp_path / "never"
    for edit, field in ((lambda d: d.pop("n"), "'n'"),
                        (lambda d: d.update(n="x"), "n must be an integer"),
                        (lambda d: d["nodes"][1].update(q=1.5), "nodes[1].q"),
                        (lambda d: d["weights"].update(travle=1.0), "weights key(s): travle")):
        doc = json.loads((tmp_path / "inst" / "instance_0000.json").read_text())
        edit(doc)
        bad.write_text(json.dumps(doc))
        assert run("solve", str(bad), "--solver", "greedy",
                   "--out", str(out)) == 3
        assert field in capsys.readouterr().err
        assert not out.exists()


def set_field(doc, field, value):
    """Set the entry of an instance document that field, named the way
    instance.validate names it (e.g. "nodes[2].x"), points to."""
    *path, last = re.findall(r"\w+", field)
    for key in path:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    doc[int(last) if isinstance(doc, list) else last] = value


NON_FINITE_FIELDS = ["nodes[2].x", "nodes[2].y", "nodes[1].a", "nodes[1].l",
                     "nodes[3].sigma", "requests[0].maxRide", "fleet.batteryKwh",
                     "horizon"] + [f"weights.{k}" for k in (
                         "energy", "wait", "late", "complete", "travel", "timeUnit")]


@pytest.mark.parametrize("field, bad", [
    *[(field, float("nan")) for field in NON_FINITE_FIELDS],
    ("requests[0].maxRide", float("inf")),
    ("fleet.batteryKwh", float("inf")),
    ("weights.late", float("inf")),
    ("horizon", float("-inf")),
])
def test_solve_refuses_non_finite_instance_field(tmp_path, capsys, field, bad):
    """A NaN or infinite number would switch its rule off silently."""
    doc = json.loads(save(generate_instance(6, seed=3)))
    set_field(doc, field, bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("solve", str(path), "--solver", "greedy", "--out", str(out)) == 3
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not out.exists()


INVALID_FIELDS = [("nodes[4].sigma", -5, "nodes[4].sigma must be >= 0, got -5"),
                  ("requests[2].maxRide", 1.0,
                   "requests[2].maxRide 1.0 is below the direct travel time")]


@pytest.mark.parametrize("edits", [[e] for e in INVALID_FIELDS] + [INVALID_FIELDS],
                         ids=["sigma", "maxRide", "both"])
def test_solve_names_every_invalid_instance_field(tmp_path, capsys, edits):
    doc = json.loads(save(generate_instance(6, seed=3)))
    for field, bad, _ in edits:
        set_field(doc, field, bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("solve", str(path), "--solver", "greedy", "--out", str(out)) == 3
    err = capsys.readouterr().err
    for _, _, message in edits:
        assert message in err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["requests"][0].update(id=7, pickup=8, delivery=10),
     "invalid instance: requests[0].id, .pickup and .delivery must be 0, 1 and 3, "
     "got 7, 8 and 10"),
    (lambda d: d["requests"][1].update(id=0, pickup=1, delivery=3),
     "invalid instance: requests[1].id, .pickup and .delivery must be 1, 2 and 4, "
     "got 0, 1 and 3"),
    (lambda d: d["edges"].update(time=base64.b64encode(bytes(8 * 9)).decode()),
     "malformed instance field: edges.time must hold 36 float64 values "
     "(288 bytes), got 72 bytes"),
    (lambda d: d["edges"].update(time=5.0),
     "malformed instance field: edges.time must be a base64 string, got float"),
    (lambda d: d["edges"].update(time="not*base64"),
     "malformed instance field: edges.time is not valid base64"),
], ids=["id7", "second-id0", "time3x3", "time-scalar", "time-not-base64"])
def test_solve_refuses_request_slot_and_edge_shape(tmp_path, capsys, edit, message):
    """A request that is not its slot's, or an edge matrix that is not
    the packed float64 of a V x V matrix, is a data error naming the file
    and the field; no rule reads a matrix before its shape is checked."""
    doc = json.loads(save(generate_instance(2, seed=3)))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("solve", str(path), "--solver", "greedy", "--out", str(out)) == 3
    assert f"{path}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_refuses_float_list_instance_schema_1(tmp_path, capsys):
    """An edarp-instance/1 file, edge matrices as decimal float lists, is
    refused by its schema: no reader for it is kept."""
    inst = generate_instance(2, seed=3)
    doc = json.loads(save(inst))
    doc["schema"] = "edarp-instance/1"
    doc["edges"] = {k: getattr(inst.edges, k).tolist() for k in ("time", "dist", "energy")}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc, indent=1))
    out = tmp_path / "out"
    assert run("solve", str(path), "--solver", "greedy", "--out", str(out)) == 3
    assert (f"{path}: unsupported schema 'edarp-instance/1', "
            "expected 'edarp-instance/2'") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edits, messages", [
    ([("nodes[2].id", 5)], ["nodes[2].id must be 2, got 5"]),
    ([("nodes[3].kind", "pickup")], ["nodes[3].kind must be delivery, got pickup"]),
    ([("nodes[5].kind", "station")], ["nodes[5].kind must be charger, got station"]),
    ([("nodes[5].kind", "depot")], ["nodes[5].kind must be charger, got depot"]),
    ([("nodes[3].kind", "pickup"), ("nodes[4].sigma", -5)],
     ["nodes[3].kind must be delivery, got pickup", "nodes[4].sigma must be >= 0"]),
], ids=["id", "delivery-as-pickup", "unknown-kind", "second-depot", "kind-and-sigma"])
def test_solve_refuses_node_id_or_kind_off_the_layout(tmp_path, capsys, edits, messages):
    """A node's id and kind must restate its position; the rules that
    follow judge the node by its position, never by the kind it claims."""
    doc = json.loads(save(generate_instance(2, seed=3)))
    for field, bad in edits:
        set_field(doc, field, bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("solve", str(path), "--solver", "greedy", "--out", str(out)) == 3
    err = capsys.readouterr().err
    for message in messages:
        assert message in err
    assert ".q must" not in err
    assert not out.exists()


def test_data_error_leaves_no_output_dir(tmp_path, capsys):
    """A solve or eval that fails on its instances writes nothing."""
    out = tmp_path / "newdir"
    assert run("solve", str(tmp_path / "missing.json"), "--solver", "greedy",
               "--out", str(out)) == 3
    assert not out.exists()
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_bytes(save_policy(Policy(PolicyConfig(d_h=16, heads=2, layers=1))))
    inst_dir = gen_dir(tmp_path, count=1)
    doc = json.loads((inst_dir / "instance_0000.json").read_text())
    doc["schema"] = "not-an-instance"
    (inst_dir / "instance_0000.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("eval", "--checkpoint", str(ckpt),
               "--instances", str(inst_dir), "--out", str(out)) == 3
    assert "schema" in capsys.readouterr().err
    assert not out.exists()


def test_solve_refuses_colliding_output_stems(tmp_path, monkeypatch, capsys):
    """Two instances with one file stem would write one solution and one
    telemetry file; the solve is refused before anything runs or is
    written."""
    a = gen_dir(tmp_path, count=1, seed=1, name="a") / "instance_0000.json"
    b = gen_dir(tmp_path, count=1, seed=2, name="b") / "instance_0000.json"
    ran = []
    monkeypatch.setattr(cli, "alns_solve", lambda *args: ran.append(args))
    out = tmp_path / "o"
    capsys.readouterr()
    for pair in ((a, b), (a, a)):
        assert run("solve", *map(str, pair), "--solver", "alns",
                   "--telemetry", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(pair[0]) in err and str(pair[1]) in err
        assert "instance_0000" in err
    assert not ran and not out.exists()
    # distinct stems still solve side by side
    c = b.with_name("instance_0001.json")
    b.rename(c)
    monkeypatch.undo()
    assert run("solve", str(a), str(c), "--solver", "greedy",
               "--out", str(out)) == 0
    mani = json.loads((out / "manifest_solve.json").read_text())
    assert len(set(mani["outputPaths"])) == len(mani["outputPaths"]) == 3


def test_solve_refuses_metrics_on_its_own_files(tmp_path, capsys):
    """--metrics must not name a file the run reads or writes: appended
    rows would corrupt a solution JSON, the manifest would overwrite the
    metrics, and an input instance or the checkpoint would be appended
    to. Each is refused
    before anything is solved or written; the path resolves against
    --out and may be absolute."""
    inst = gen_dir(tmp_path, count=1) / "instance_0000.json"
    before = inst.read_bytes()
    out = tmp_path / "o"
    ck = tmp_path / "ck.json"           # never written: the run stops before reading it
    capsys.readouterr()
    for solver, extra, metrics in (
            ("greedy", (), "solution_instance_0000_greedy.json"),
            ("greedy", (), "manifest_solve.json"),
            ("greedy", (), str(out / "sub" / ".." / "manifest_solve.json")),
            ("greedy", (), str(inst)),
            ("neural", ("--checkpoint", str(ck)), str(ck)),
            ("alns", ("--telemetry", "--iterations", "1"), "telemetry_instance_0000.csv")):
        assert run("solve", str(inst), "--solver", solver, *extra,
                   "--out", str(out), "--metrics", metrics) == 2, metrics
        assert "--metrics" in capsys.readouterr().err
        assert not out.exists()
    assert inst.read_bytes() == before
    # the same names are fine where the run writes no such file
    assert run("solve", str(inst), "--solver", "greedy", "--out", str(out),
               "--metrics", "telemetry_instance_0000.csv") == 0
    json.loads((out / "solution_instance_0000_greedy.json").read_text())
    mani = json.loads((out / "manifest_solve.json").read_text())
    assert mani["outputPaths"][-1] == str(out / "telemetry_instance_0000.csv")
    assert len(read_csv(out / "telemetry_instance_0000.csv")) == 2


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


def test_jobs_pool_pins_blas_threads(tmp_path, monkeypatch):
    # spawned workers start with every BLAS thread variable at 1; the
    # parent's environment is left as it was
    for var in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    names = list(cli.BLAS_THREAD_VARS)
    assert cli._run_tasks(os.getenv, names, 2) == (["1"] * len(names),
                                                   {"poolBlasThreads": 1})
    assert [os.getenv(var) for var in names] == ["7"] + [None] * (len(names) - 1)
    assert cli._run_tasks(os.getenv, names, 1) == (
        ["7"] + [None] * (len(names) - 1), {"poolBlasThreads": None})
    insts = sorted(str(p) for p in gen_dir(tmp_path).glob("instance_*.json"))
    for jobs, want in (("1", None), ("2", 1)):
        out = tmp_path / f"jobs{jobs}"
        assert run("solve", *insts, "--solver", "greedy", "--jobs", jobs,
                   "--out", str(out)) == 0
        mani = json.loads((out / "manifest_solve.json").read_text())
        assert mani["poolBlasThreads"] == want


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
    assert tele[0] == ["iteration", "best_cost", "current_cost", "tolerance",
                       "destroy_op", "repair_op"]
    assert len(tele) == 21
    assert [r[0] for r in tele[1:]] == [str(i) for i in range(20)]
    mani = json.loads((sol_dir / "manifest_solve.json").read_text())
    assert str(sol_dir / "telemetry_instance_0000.csv") in mani["outputPaths"]


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
    cfg = write_config(tmp_path, dict(TINY_TRAIN, growth_factor=7.5))
    assert run("train", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "growth_factor" in capsys.readouterr().err


def test_train_rejects_k_p_one(tmp_path):
    cfg = write_config(tmp_path, dict(TINY_TRAIN, k_p=1))
    assert run("train", "--config", str(cfg), "--out", str(tmp_path)) == 2


CURRICULUM = dict(TINY_TRAIN, curriculum=[2, 3], epochs_per_stage=1)
del CURRICULUM["n"], CURRICULUM["epochs"]    # the curriculum sets both


@pytest.mark.parametrize("doc, key", [
    (dict(TINY_TRAIN, batch=0), "batch"),
    (dict(TINY_TRAIN, epochs=-1), "epochs"),
    (dict(TINY_TRAIN, epochs=1.5), "epochs"),
    (dict(TINY_TRAIN, lr=-1), "lr"),
    (dict(TINY_TRAIN, lr="0.1"), "lr"),
    (dict(TINY_TRAIN, layers=-1), "layers"),
    (dict(TINY_TRAIN, n=True), "n"),
    (dict(TINY_TRAIN, n=0), "n"),
    (dict(TINY_TRAIN, grad_clip=-1), "grad_clip"),
    (dict(TINY_TRAIN, val_size=0), "val_size"),
    (dict(TINY_TRAIN, steps_per_epoch=0), "steps_per_epoch"),
    (dict(TINY_TRAIN, charger_count=0), "charger_count"),
    (dict(TINY_TRAIN, vehicles=0), "vehicles"),
    (dict(TINY_TRAIN, capacity=0), "capacity"),
    (dict(TINY_TRAIN, seed=-1), "seed"),
    (dict(TINY_TRAIN, beta1=1.0), "beta1"),
    (dict(TINY_TRAIN, beta2=-0.1), "beta2"),
    (dict(TINY_TRAIN, eps_num=0), "eps_num"),
    (dict(TINY_TRAIN, sizes=[2, 0]), "sizes"),
    (dict(TINY_TRAIN, heads=3), "heads"),
    (dict(TINY_TRAIN, heads=0), "heads"),
    (dict(TINY_TRAIN, d_h=0), "d_h"),
    (dict(TINY_TRAIN, ffn_mult=0), "ffn_mult"),
    (dict(TINY_TRAIN, kappa=0), "kappa"),
    (dict(TINY_TRAIN, **{"lambda": -1}), "lambda"),
    (dict(TINY_TRAIN, k_p=2.5), "k_p"),
    (dict(CURRICULUM, curriculum=[0]), "curriculum"),
    (dict(CURRICULUM, curriculum=[]), "curriculum"),
    (dict(CURRICULUM, epochs_per_stage=0), "epochs_per_stage"),
    (CURRICULUM, "--resume"),       # a curriculum restarts its optimizer
    (dict(CURRICULUM, n=5), "n"),                # each stage sets its size
    (dict(CURRICULUM, epochs=7), "epochs"),      # epochs_per_stage overrides it
])
def test_train_rejects_bad_config_value_by_name(tmp_path, capsys, doc, key):
    argv = ["train", "--config", str(write_config(tmp_path, doc))]
    if key == "--resume":
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_bytes(save_policy(Policy(PolicyConfig(d_h=16, heads=2,
                                                         layers=1))))
        argv += ["--resume", str(ckpt)]
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 2
    assert re.search(rf"(?<![\w-]){key}\b", capsys.readouterr().err)
    assert not out.exists()


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


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """The output directory of a TINY_TRAIN run."""
    tmp = tmp_path_factory.mktemp("trained")
    out = tmp / "run"
    assert run("train", "--config", str(write_config(tmp, TINY_TRAIN)),
               "--out", str(out)) == 0
    return out


def test_train_resume_rejects_architecture_mismatch(tmp_path, capsys, trained_run):
    # every policy key but the seed must match the checkpoint's
    for key, value in (("d_h", 32), ("ffn_mult", 2), ("lambda", 0.0), ("kappa", 3.0)):
        cfg = write_config(tmp_path, dict(TINY_TRAIN, **{key: value}))
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "r2"),
                   "--resume", str(trained_run / "checkpoint_final.json")) == 2, key
        assert f"config {key}={value} conflicts" in capsys.readouterr().err


@pytest.fixture(scope="module")
def final_checkpoint(trained_run):
    """The parsed checkpoint_final.json of a TINY_TRAIN run."""
    return json.loads((trained_run / "checkpoint_final.json").read_text())


def unpack(text):
    """The float64 array a checkpoint string holds."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


def repack(holder, key, edit):
    """Decode the packed array holder[key], apply edit to it, and store
    what edit returns packed again."""
    arr = np.asarray(edit(unpack(holder[key])), dtype="<f8")
    holder[key] = base64.b64encode(arr.tobytes()).decode()


def setting(i, value):
    """An edit that sets entry i to value."""
    def edit(arr):
        arr[i] = value
        return arr
    return edit


def _drop_m(st):
    del st["m"]


def _truncate_v(st):
    repack(st["v"], "embed_b", lambda a: a[:-1])


def _nan_m(st):
    repack(st["m"], "ctx_curr", setting(3, float("nan")))


def _negative_v(st):
    repack(st["v"], "ctx_soc", setting(0, -1.0))


def _float_epoch(st):
    st["epoch"] = 1.5


def _drop_epoch(st):
    del st["epoch"]


SPOILS = [_drop_m, _truncate_v, _nan_m, _negative_v, _float_epoch, _drop_epoch,
          None]


def write_spoiled(tmp_path, final_checkpoint, spoil):
    """A copy of final_checkpoint with its optState spoiled; None makes
    optState a list."""
    doc = json.loads(json.dumps(final_checkpoint))
    if spoil is None:
        doc["optState"] = [1, 2]              # not an object
    else:
        spoil(doc["optState"])
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(doc))
    return ckpt


def reader_argv(tmp_path, command, ckpt):
    """argv of a command that reads the checkpoint ckpt, without --out."""
    if command == "train":
        return ["train", "--config", str(write_config(tmp_path, TINY_TRAIN)),
                "--resume", str(ckpt)]
    inst_dir = gen_dir(tmp_path, count=1)
    if command == "solve":
        return ["solve", str(inst_dir / "instance_0000.json"),
                "--solver", "neural", "--checkpoint", str(ckpt)]
    return ["eval", "--checkpoint", str(ckpt), "--instances", str(inst_dir)]


@pytest.mark.parametrize("spoil", SPOILS)
def test_train_resume_rejects_malformed_opt_state(tmp_path, capsys,
                                                  final_checkpoint, spoil):
    ckpt = write_spoiled(tmp_path, final_checkpoint, spoil)
    out = tmp_path / "out"
    assert run("train", "--config", str(write_config(tmp_path, TINY_TRAIN)),
               "--resume", str(ckpt), "--out", str(out)) == 3
    assert "optState" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spoil", SPOILS)
@pytest.mark.parametrize("command", ["solve", "eval"])
def test_neural_commands_reject_malformed_opt_state(tmp_path, capsys,
                                                    final_checkpoint, command,
                                                    spoil):
    """A checkpoint field is honoured or refused: the commands that ignore
    the optimizer state still refuse a malformed one."""
    ckpt = write_spoiled(tmp_path, final_checkpoint, spoil)
    out = tmp_path / "out"
    assert run(*reader_argv(tmp_path, command, ckpt), "--out", str(out)) == 3
    assert "optState" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["solve", "eval", "train"])
def test_nonfinite_checkpoint_weights_exit_3(tmp_path, capsys,
                                            final_checkpoint, command, bad):
    doc = json.loads(json.dumps(final_checkpoint))
    repack(doc["params"]["ctx_curr"], "data", setting(5, bad))
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(*reader_argv(tmp_path, command, ckpt), "--out", str(out)) == 3
    assert "non-finite weights in 'ctx_curr'" in capsys.readouterr().err
    assert not out.exists()


def _float_list(doc):
    entry = doc["params"]["ctx_curr"]
    entry["data"] = unpack(entry["data"]).tolist()


def _bad_character(doc):
    entry = doc["params"]["ctx_curr"]
    entry["data"] = entry["data"][:8] + "*" + entry["data"][9:]


def _one_short(doc):
    repack(doc["params"]["ctx_curr"], "data", lambda a: a[:-1])


def _one_long(doc):
    repack(doc["params"]["ctx_curr"], "data", lambda a: np.append(a, 0.5))


def _schema_1(doc):
    """The whole document in the old layout: every array a float list."""
    doc["schema"] = "edarp-policy/1"
    for entry in doc["params"].values():
        entry["data"] = unpack(entry["data"]).tolist()
    for name in ("m", "v"):
        moments = doc["optState"][name]
        for k in moments:
            moments[k] = unpack(moments[k]).tolist()


@pytest.mark.parametrize("spoil, message", [
    (_float_list, "weights in 'ctx_curr' must be a base64 string, got list"),
    (_bad_character, "weights in 'ctx_curr' is not valid base64"),
    (_one_short, "weights in 'ctx_curr' must hold 256 float64 values "
                 "(2048 bytes), got 2040 bytes"),
    (_one_long, "weights in 'ctx_curr' must hold 256 float64 values "
                "(2048 bytes), got 2056 bytes"),
    (_schema_1, "unsupported policy schema: 'edarp-policy/1'"),
])
@pytest.mark.parametrize("command", ["solve", "eval", "train"])
def test_checkpoint_not_packed_float64_exits_3(tmp_path, capsys,
                                              final_checkpoint, command,
                                              spoil, message):
    """Every array must be base64 of the parameter's float64 bytes; the
    float-list layout of edarp-policy/1 is refused, not converted."""
    doc = json.loads(json.dumps(final_checkpoint))
    spoil(doc)
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(*reader_argv(tmp_path, command, ckpt), "--out", str(out)) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_noise_free_eval_counts_no_battery_shortfalls(tmp_path, capsys):
    inst_dir = gen_dir(tmp_path, count=2, n=3, seed=8)
    ck = tmp_path / "ck.json"
    ck.write_bytes(save_policy(Policy(PolicyConfig(d_h=16, heads=2, layers=1))))
    out = tmp_path / "eval"
    assert run("eval", "--checkpoint", str(ck), "--instances", str(inst_dir),
               "--replicas", "2", "--out", str(out)) == 0
    doc = json.loads((out / "manifest_eval.json").read_text())
    assert (doc["strandedStops"], doc["reserveBreaches"]) == (0, 0)
    assert "warning" not in capsys.readouterr().err


def test_noisy_eval_counts_and_warns_of_stranded_stops(tmp_path, capsys,
                                                      tight_fleet):
    # heavy traversal noise on a 4 kWh fleet drives some arrivals below 0
    path = tmp_path / "instance_0000.json"
    path.write_bytes(save(generate_instance(4, fleet=tight_fleet, seed=1)))
    ck = tmp_path / "ck.json"
    ck.write_bytes(save_policy(Policy(PolicyConfig(d_h=16, heads=2, layers=1))))
    out = tmp_path / "eval"
    assert run("eval", "--checkpoint", str(ck), "--instances", str(path),
               "--stochastic", "2", "--replicas", "3", "--multistart", "2",
               "--out", str(out)) == 0
    doc = json.loads((out / "manifest_eval.json").read_text())
    assert 0 < doc["strandedStops"] <= doc["reserveBreaches"]
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert f"{doc['strandedStops']} stops" in err


def test_battery_shortfalls_count_arrival_charge():
    # arrival charge is the logged soc minus chargeDelta: the charger stop
    # leaves at 0.5 but arrived at -0.1
    stop_logs = [[(0, 0.0, 0.0, 1.0, 0.0), (1, 5.0, 5.0, 0.25, 0.0),
                  (3, 9.0, 9.0, 0.5, 0.6), (0, 20.0, 20.0, 0.3, 0.0)],
                 [(0, 0.0, 0.0, 1.0, 0.0), (2, 4.0, 4.0, 0.05, 0.0)]]
    sol = Solution(stop_logs, 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, {})
    assert battery_shortfalls(sol, 0.3) == (1, 3)
    assert battery_shortfalls(sol, 0.0) == (1, 1)


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


def test_eval_encodes_each_instance_and_parses_checkpoint_once(tmp_path, monkeypatch):
    inst_dir = gen_dir(tmp_path, count=2, n=3, seed=8)
    ck = tmp_path / "ck.json"
    ck.write_bytes(save_policy(Policy(PolicyConfig(d_h=16, heads=2, layers=1))))
    calls = {"encode": 0, "load_policy": 0}
    encode, load_policy = Policy.encode, cli.load_policy

    def counted_encode(self, tape, feats):
        calls["encode"] += 1
        return encode(self, tape, feats)

    def counted_load(data):
        calls["load_policy"] += 1
        return load_policy(data)

    monkeypatch.setattr(Policy, "encode", counted_encode)
    monkeypatch.setattr(cli, "load_policy", counted_load)
    argv = ["eval", "--checkpoint", str(ck), "--instances", str(inst_dir),
            "--stochastic", "0.1", "--replicas", "3"]
    assert run(*argv, "--out", str(tmp_path / "shared")) == 0
    assert calls == {"encode": 2, "load_policy": 1}
    # pool workers get the parsed policy, not the checkpoint bytes
    assert run(*argv, "--jobs", "2", "--out", str(tmp_path / "jobs")) == 0

    # reference: every replica encodes for itself
    calls["encode"] = 0
    monkeypatch.setattr(cli, "multistart_rollout",
                        lambda policy, inst, k_p, noise, enc:
                        multistart_rollout(policy, inst, k_p=k_p, noise=noise))
    assert run(*argv, "--out", str(tmp_path / "own")) == 0
    assert calls["encode"] == 2 + 2 * 3
    skip = METRICS_COLUMNS.index("wall_s")
    want = [r[:skip] for r in read_csv(tmp_path / "shared" / "eval_metrics.csv")]
    assert len(want) == 1 + 2 * 3
    for other in ("own", "jobs"):
        got = read_csv(tmp_path / other / "eval_metrics.csv")
        assert [r[:skip] for r in got] == want
        assert ((tmp_path / other / "eval_summary.csv").read_bytes()
                == (tmp_path / "shared" / "eval_summary.csv").read_bytes())


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


def assert_report_rejects(tmp_path, capsys, *edits):
    """For each edit, run report on a greedy metrics CSV whose second row
    is edit(fields of the first): it must exit 3 naming the file and line."""
    out = gen_dir(tmp_path, count=1)
    sol_dir = tmp_path / "sols"
    assert run("solve", str(out / "instance_0000.json"), "--solver", "greedy",
               "--out", str(sol_dir)) == 0
    header, good = (sol_dir / "metrics.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"
    for edit in edits:
        bad.write_text(f"{header}\n{good}\n{','.join(edit(good.split(',')))}\n")
        capsys.readouterr()
        assert run("report", str(bad)) == 3
        assert f"{bad} line 3" in capsys.readouterr().err


def test_report_rejects_malformed_rows(tmp_path, capsys):
    assert_report_rejects(tmp_path, capsys,
                          lambda f: f[:5] + ["fast"] + f[6:],   # non-numeric
                          lambda f: f[:-2])                      # short


def test_report_rejects_row_with_extra_fields(tmp_path, capsys):
    assert_report_rejects(tmp_path, capsys, lambda f: f + ["99", "junk"])


def test_report_rejects_non_finite_cells(tmp_path, capsys):
    assert_report_rejects(tmp_path, capsys,
                          *(lambda f, c=cell: f[:3] + [c] + f[4:]
                            for cell in ("nan", "inf", "-inf")))


def test_usage_error_on_unknown_solver(tmp_path):
    out = gen_dir(tmp_path, count=1)
    with pytest.raises(SystemExit) as ex:
        run("solve", str(out / "instance_0000.json"), "--solver", "sorcery")
    assert ex.value.code == 2


def test_solve_exact_manifest_counts_limit_hits(tmp_path, capsys):
    inst = gen_dir(tmp_path, count=1, n=3, seed=8) / "instance_0000.json"
    for argv, hits in ((["--limit", "40"], 1), ([], 0)):
        out = tmp_path / f"sols{hits}"
        capsys.readouterr()
        assert run("solve", str(inst), "--solver", "exact", *argv,
                   "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert (f"warning: search limit hit on {inst}; best found returned"
                in err) == bool(hits)
        mani = json.loads((out / "manifest_solve.json").read_text())
        assert mani["limitHits"] == hits


def test_solve_alns_manifest_counts_replay_failures(tmp_path):
    inst = generate_instance(6, charger_count=2, fleet=FleetParams(
        battery_kwh=4.0, soc_reserve=0.3), seed=1176)
    path = tmp_path / "instance_0000.json"
    path.write_bytes(save(inst))
    expected = alns_solve(inst, 100, cli._stream_seed(0, 2, 0))[1].replay_failures
    assert expected > 0
    assert run("solve", str(path), "--solver", "alns", "--iterations", "100",
               "--seed", "0", "--out", str(tmp_path / "alns")) == 0
    mani = json.loads((tmp_path / "alns" / "manifest_solve.json").read_text())
    assert mani["replayFailures"] == expected
    assert run("solve", str(path), "--solver", "greedy",
               "--out", str(tmp_path / "greedy")) == 0
    mani = json.loads((tmp_path / "greedy" / "manifest_solve.json").read_text())
    assert "replayFailures" not in mani and "limitHits" not in mani
