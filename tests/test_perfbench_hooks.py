"""The benchmark's tracer wraps package functions at named attributes;
every one must exist where the tracer looks for it."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_hook_target_is_bound_in_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr, _, _ in spans.HOOKS:
        owner = importlib.import_module(module_name)
        name = attr
        if "." in name:
            cls_name, name = name.split(".")
            owner = owner.__dict__[cls_name]
        assert callable(owner.__dict__.get(name)), f"{module_name}.{attr} is not bound there"
