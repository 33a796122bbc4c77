"""The benchmark's tracer wraps library functions by name: every name it
lists must resolve, so that a rename fails here and not in a traced run."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    tracer = runpy.run_path(str(TRACER))
    names = tracer["traced_names"]()
    assert len(names) == (sum(len(fns) for fns in tracer["LAYERS"].values())
                          + len(tracer["CRITERIA"]))
    for name in names:
        mod_name, fn_name = name.split(".")
        mod = importlib.import_module(f"ballorbits.{mod_name}")
        if mod_name == "acceptance":
            found = [c for c in mod._CRITERIA
                     if c.__name__.startswith(fn_name + "_")]
            assert len(found) == 1, name
        else:
            assert callable(getattr(mod, fn_name, None)), name
