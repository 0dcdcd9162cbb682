"""The benchmark tracer's span targets, and the caches its counting hooks
read, all exist in the package."""

import ast
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


def hook_caches():
    """(module, attribute) of each ``module._...CACHE`` the tracer reads."""
    tree = ast.parse(TRACER.read_text())
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.attr.startswith("_") and node.attr.endswith("CACHE")})


def test_every_hook_cache_resolves():
    caches = hook_caches()
    assert ("groups", "_SNF_CACHE") in caches
    missing = [f"{modname}.{attr}" for modname, attr in caches
               if not hasattr(importlib.import_module(f"gxbtc.{modname}"), attr)]
    assert missing == []
