"""The benchmark's traced layers name functions that exist and are called.

perfbench/tracing.py wraps every LAYERS entry by its dotted name, so a
renamed, deleted or inlined function would otherwise surface only when
the benchmark runs. The module is executed from its source text rather
than imported, so nothing is written under perfbench/.
"""
import importlib
import json
import types
from pathlib import Path

from edarp import cli
from edarp.policy import Policy, PolicyConfig, save_policy

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    mod = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    names = [name for name, _, _ in tracing.LAYERS]
    missing = []
    for name in names:
        try:
            importlib.import_module("edarp." + name.split(".")[0])
            _, _, fn = tracing.resolve(name)
        except (ImportError, KeyError, AttributeError):
            missing.append(name)
            continue
        assert callable(fn), name
    assert missing == []
    for workload, spans in tracing.EXPECTED.items():
        assert set(spans) <= set(names), workload


def silent_spans(workload, *commands):
    """Run the CLI commands under the Tracer; returns the spans the
    workload expects that recorded no call. main is looked up on its
    module, where the Tracer binds its wrapper."""
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        for argv in commands:
            assert cli.main([str(a) for a in argv]) == 0, argv
    # uninstalled: every traced function is its unwrapped self again
    for name, _, _ in tracing.LAYERS:
        assert not hasattr(tracing.resolve(name)[2], "__wrapped__"), name
    return [name for name in tracing.EXPECTED[workload]
            if tracer.stats[name].calls == 0]


def test_traced_alns_solve_calls_every_expected_span(tmp_path):
    """A tiny `edarp solve --solver alns` records a call on every span
    the alns-n40 workload expects."""
    inst = tmp_path / "inst"
    assert silent_spans(
        "alns-n40",
        ["generate", "--out", inst, "--n", 8, "--count", 1, "--seed", 1],
        ["solve", inst / "instance_0000.json", "--solver", "alns",
         "--iterations", 12, "--seed", 1, "--out", tmp_path / "out"]) == []


def test_traced_train_calls_every_expected_span(tmp_path):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"n": 2, "epochs": 1, "steps_per_epoch": 1,
                                  "batch": 1, "k_p": 2, "val_size": 1, "d_h": 8,
                                  "heads": 2, "layers": 1, "seed": 0}))
    assert silent_spans("train-n10",
                        ["train", "--config", config, "--out", tmp_path / "out"]) == []


def test_traced_eval_calls_every_expected_span(tmp_path):
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_bytes(save_policy(Policy(PolicyConfig(seed=0))))
    inst = tmp_path / "inst"
    assert silent_spans(
        "eval-n40",
        ["generate", "--out", inst, "--n", 3, "--count", 1, "--seed", 1],
        ["eval", "--checkpoint", ckpt, "--instances", inst, "--stochastic", 0.1,
         "--replicas", 2, "--multistart", 2, "--seed", 1,
         "--out", tmp_path / "out"]) == []


def test_traced_exact_solve_calls_every_expected_span(tmp_path):
    inst = tmp_path / "inst"
    path = inst / "instance_0000.json"
    assert silent_spans(
        "exact-n5",
        ["generate", "--out", inst, "--n", 3, "--count", 1, "--seed", 1],
        ["solve", path, "--solver", "greedy", "--out", tmp_path / "out"],
        ["solve", path, "--solver", "exact", "--out", tmp_path / "out"]) == []
