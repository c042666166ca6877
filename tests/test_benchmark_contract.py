"""The per-layer metrics of ``BENCHMARK.json`` name functions that exist.

Every per-layer name outside ``bench.*`` reads ``<module>.<function>.<stat>``
and is traced by wrapping ``pego.<module>.<function>``; the benchmark
refuses a name it cannot trace.  So each such function must stay a public
function defined in its module.  ``wigner`` is the module ``pego._wigner``.
"""

import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = {"wigner": "_wigner"}


def _traced_functions():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [metric["name"] for metric in json.load(fh)["per_layer"]]
    return sorted({tuple(name.split(".")[:2]) for name in names if not name.startswith("bench.")})


def test_every_per_layer_name_is_a_public_function_of_its_module():
    traced = _traced_functions()
    assert len(traced) > 40
    missing = []
    for module, function in traced:
        mod = importlib.import_module(f"pego.{MODULES.get(module, module)}")
        obj = getattr(mod, function, None)
        if (function.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__):
            missing.append(f"{module}.{function}")
    assert missing == []
