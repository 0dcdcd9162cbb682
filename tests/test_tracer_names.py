"""The benchmark tracer's span targets all exist in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("gxbtc_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_span_target_resolves():
    missing = []
    for span, (modname, attr) in load_spans().items():
        owner = importlib.import_module(f"gxbtc.{modname}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{span}: {modname}.{attr}")
    assert missing == []
