"""The benchmark's traced layers name functions that exist.

perfbench/tracing.py wraps every LAYERS entry by its dotted name, so a
renamed or deleted function would otherwise surface only when the
benchmark runs. The module is executed from its source text rather than
imported, so nothing is written under perfbench/.
"""
import importlib
import types
from pathlib import Path

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
