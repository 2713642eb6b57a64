"""The benchmark's traced layers name functions that exist and are called.

perfbench/tracing.py wraps every LAYERS entry by its dotted name, so a
renamed, deleted or inlined function would otherwise surface only when
the benchmark runs. The module is executed from its source text rather
than imported, so nothing is written under perfbench/.
"""
import importlib
import types
from pathlib import Path

from edarp import cli

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


def test_traced_alns_solve_calls_every_expected_span(tmp_path):
    """A tiny in-process `edarp solve --solver alns` under the Tracer
    records a call on every span the alns-n40 workload expects. main is
    looked up on its module, where the Tracer binds its wrapper."""
    tracing = load_tracing()
    inst = tmp_path / "inst"
    with tracing.Tracer() as tracer:
        assert cli.main(["generate", "--out", str(inst), "--n", "8", "--count", "1",
                     "--seed", "1"]) == 0
        assert cli.main(["solve", str(inst / "instance_0000.json"), "--solver", "alns",
                     "--iterations", "12", "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 0
    silent = [name for name in tracing.EXPECTED["alns-n40"]
              if tracer.stats[name].calls == 0]
    assert silent == []
    # uninstalled: every traced function is its unwrapped self again
    for name, _, _ in tracing.LAYERS:
        assert not hasattr(tracing.resolve(name)[2], "__wrapped__"), name
