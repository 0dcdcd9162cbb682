"""Imports in fresh interpreters: each module loads on its own and only
the modules it imports, numpy is loaded only by the commands that build
arrays, and every module-level container a run fills is named as a cache.

``cohomology``, ``equiv``, ``compose`` and ``build`` on abelian inputs
never build an array, so a desk call of one of them does not pay for
numpy; ``check`` and ``torsor --solve-x`` run the array kernels.
"""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gxbtc import category as cat
from gxbtc import equivalence as eq
from gxbtc.groups import Cochain, cochain_to_json, turn_phase

SRC = Path(cat.__file__).parents[1]
MODULES = sorted(p.stem for p in (SRC / "gxbtc").glob("*.py")
                 if p.stem != "__init__")

# module -> the gxbtc modules that importing it loads; the package itself
# imports none
LOADS = {"errors": {"errors"}, "intlin": {"intlin"}}
LOADS["groups"] = {"groups", "intlin", "errors"}
LOADS["category"] = LOADS["groups"] | {"category"}
LOADS["consistency"] = LOADS["groups"] | {"consistency"}
LOADS["constructions"] = LOADS["category"] | {"constructions"}
LOADS["torsor"] = LOADS["constructions"] | {"consistency", "torsor"}
LOADS["equivalence"] = LOADS["torsor"] | {"equivalence"}
LOADS["compose"] = LOADS["equivalence"] | {"compose"}
LOADS["cli"] = set(MODULES)

# the gxbtc modules loaded after importing the module named in argv[1]
LOADED = """
import importlib, json, sys
importlib.import_module("gxbtc." + sys.argv[1])
print(json.dumps(sorted(name[len("gxbtc."):] for name in sys.modules
                        if name.startswith("gxbtc."))))
"""

# main(argv) for each call in turn, then whether numpy has been loaded
CALLS = """
import json, sys
import gxbtc.cli
out = []
for argv in json.loads(sys.argv[1]):
    code = gxbtc.cli.main(argv)
    out.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(out))
"""

# the gxbtc module-level dicts, lists, sets and weak containers that grew
# over main(argv) for each call in turn, with every module imported first
GROWN = """
import importlib, json, pkgutil, sys, weakref
import gxbtc, gxbtc.cli
for info in pkgutil.iter_modules(gxbtc.__path__):
    importlib.import_module("gxbtc." + info.name)
KINDS = (dict, list, set, weakref.WeakKeyDictionary, weakref.WeakValueDictionary,
         weakref.WeakSet)


def sizes():
    return {f"{name}.{attr}": len(value)
            for name, mod in list(sys.modules.items())
            if name == "gxbtc" or name.startswith("gxbtc.")
            for attr, value in vars(mod).items()
            if not attr.startswith("__") and isinstance(value, KINDS)}


before = sizes()
for argv in json.loads(sys.argv[1]):
    assert gxbtc.cli.main(argv) == 0
print(json.dumps(sorted(k for k, n in sizes().items() if n > before.get(k, 0))))
"""


def fresh(*args, cwd=None):
    """stdout of ``python *args`` in a fresh interpreter that finds gxbtc."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def calls(tmp_path, argvs):
    """[command, exit code, numpy loaded] after each of ``argvs``, run in
    order in one fresh interpreter."""
    argvs = [[*argv, "-o", str(tmp_path / f"out{i}.json")]
             for i, argv in enumerate(argvs)]
    return json.loads(fresh("-c", CALLS, json.dumps(argvs)))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    assert json.loads(fresh("-c", LOADED, module)) == sorted(LOADS[module])


@pytest.fixture()
def files(tmp_path, toric, toric_z2):
    """Toric code, toric code x Z2, a mu_8 gauge of the latter, and two
    twists of it."""
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    vac, ident = toric_z2.vacuum, toric_z2.group.identity
    phases = (turn_phase(Fraction(k % 8, 8)) for k in itertools.count(1))
    gauge = eq.GaugeTransform(
        {(a, b, c): next(phases) for a, b, c in toric_z2.fusion_triples()
         if vac not in (a, b)},
        {(a, g): next(phases) for a in toric_z2.charges() if a != vac
         for g in toric_z2.group.elements() if g != ident})
    module = cat.abelian_subgroup(toric_z2)
    return {
        "toric": write("toric.json", cat.theory_to_json(toric)),
        "toric_z2": write("toric_z2.json", cat.theory_to_json(toric_z2)),
        "gauged": write("gauged.json", cat.theory_to_json(
            eq.apply_gauge(toric_z2, gauge))),
        "t1": write("t1.json", cochain_to_json(
            Cochain(toric_z2.group, 2, module, {(1, 1): 1}))),
        "t2": write("t2.json", cochain_to_json(
            Cochain(toric_z2.group, 2, module, {(1, 1): 3}))),
    }


def test_desk_calls_leave_numpy_unloaded(tmp_path, files):
    done = calls(tmp_path, [
        ["cohomology", "--group", "Z2x2", "--coeff", "u1", "--degree", "3"],
        ["cohomology", "--group", "Z2", "--coeff", "z2x2", "--degree", "2"],
        ["equiv", files["toric_z2"], files["gauged"]],
        ["equiv", files["gauged"], files["toric_z2"]],
        ["compose", files["toric_z2"], "--t1", files["t1"],
         "--t2", files["t2"]],
        ["build", "toric-code"],
        ["build", "trivial-ext", "--c0", files["toric"], "--group", "Z2"],
    ])
    assert done == [[command, 0, False] for command, _, _ in done]


@pytest.mark.parametrize("command", ["check", "torsor"])
def test_kernel_calls_load_numpy(tmp_path, files, command):
    argv = {"check": ["check", files["toric_z2"]],
            "torsor": ["torsor", files["toric_z2"], "--t", files["t2"],
                       "--solve-x"]}[command]
    assert calls(tmp_path, [argv]) == [[command, 0, True]]


def test_every_memo_a_run_fills_is_named_a_cache(tmp_path, files, semion_theory):
    # the benchmark starts each operation cold by emptying the module
    # attributes named *CACHE*; a memo named otherwise would carry over
    semion = tmp_path / "semion.json"
    semion.write_text(json.dumps(cat.theory_to_json(semion_theory)))
    argvs = [["enumerate-extensions", "--c0", str(semion), "--group", "Z2x2"],
             ["torsor", files["toric_z2"], "--t", files["t2"], "--solve-x"]]
    argvs = [[*argv, "-o", str(tmp_path / f"out{i}.json")]
             for i, argv in enumerate(argvs)]
    grown = json.loads(fresh("-c", GROWN, json.dumps(argvs)))
    assert "gxbtc.groups._FACES_CACHE" in grown
    assert [name for name in grown if "CACHE" not in name.upper()] == []
