"""The benchmark under perfbench/ finds every name it times.

perfbench/tracer.py wraps functions by name and reports a metric as null
when a name it is computed from no longer exists, so a rename in the program
silently turns a number into null. This reads the names from
perfbench/spec.py (the spans each metric is computed from) and from
tracer.METHODS, without importing the tracer, and checks that each still
resolves to a function where the tracer looks for it.
"""

import ast
import importlib
import runpy
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_methods() -> tuple:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["METHODS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py defines no METHODS")


def _hooked_names() -> set:
    spec = runpy.run_path(str(PERFBENCH / "spec.py"))
    names = {src for _, _, _, sources in spec["PER_LAYER"] for src in sources
             if not src.startswith("layer:")}
    names |= {".".join(m) for m in _tracer_methods()}
    return names


def test_every_benchmark_hook_resolves_to_a_function():
    names = _hooked_names()
    assert "controllers.Controller.controls" in names   # the files were read
    missing = []
    for name in sorted(names):
        layer, *path = name.split(".")
        module = importlib.import_module(f"netfeedback.{layer}")
        if len(path) == 1:
            # a module function: the tracer names its span by where it is
            # defined, so it must be defined in this very module
            fn = vars(module).get(path[0])
            ok = (isinstance(fn, types.FunctionType)
                  and fn.__module__ == module.__name__ and fn.__qualname__ == path[0])
        else:
            # a method: the tracer wraps it on the class itself
            cls = vars(module).get(path[0])
            ok = (isinstance(cls, type)
                  and isinstance(vars(cls).get(path[1]), types.FunctionType))
        if not ok:
            missing.append(name)
    assert not missing, f"benchmark hooks no longer resolve: {missing}"
