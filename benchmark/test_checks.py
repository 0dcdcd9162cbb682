"""Negative controls: the benchmark's checks must reject corrupted outputs.

    python3 -m pytest benchmark/test_checks.py

Each test runs the real operation once through ``gxbtc.cli.main``, checks
that its output passes, then corrupts one thing and checks that it fails.
"""

import cmath
import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def run_ops(name, tmp_path, wanted):
    """Outputs of the named operations of a workload, with their ops."""
    from gxbtc import cli

    ops = {op.name: op for op in workloads.WORKLOADS[name](tmp_path, seed=7)}
    outputs = {}
    for key in wanted:
        op = ops[key]
        assert cli.main(op.argv) == op.expected_exit
        outputs[key] = (op, json.loads(Path(op.output).read_text()))
    return outputs


def rejects(op, corrupted, match):
    with pytest.raises(CheckFailed, match=match):
        op.check(corrupted)


def test_twist_s3_rejects_one_perturbed_f_value(tmp_path):
    (op, out), = run_ops("twist-s3", tmp_path, ["torsor"]).values()
    op.check(out)
    bad = copy.deepcopy(out)
    entry = next(e for e in bad["F"] if min(e["charges"][:3]) >= 4)
    value = workloads.phase(entry["value"]) * cmath.exp(1e-3j)
    entry["value"] = {"re": value.real, "im": value.imag}
    rejects(op, bad, "pentagon")


def test_cohomology_rejects_wrong_orders(tmp_path):
    (op, out), = run_ops("cohomology", tmp_path, ["cohomology Z2x2 u1 3"]).values()
    op.check(out)
    for orders in ([2, 2], [4, 2], [2, 2, 2, 2]):
        bad = dict(out, orders=orders)
        rejects(op, bad, "differ from")


def test_cohomology_rejects_open_representative(tmp_path):
    (op, out), = run_ops("cohomology", tmp_path, ["cohomology Z6 u1 3"]).values()
    op.check(out)
    bad = copy.deepcopy(out)
    entry = bad["representatives"][0]["entries"][0]
    entry["value"] = {"turns": "1/12" if entry["value"] == {"turns": "1/24"} else "1/24"}
    rejects(op, bad, "not closed")
    entry["value"] = {"turns": "1/5"}   # off the root lattice of Z6
    rejects(op, bad, "not a root")


def test_equiv_rejects_flipped_verdicts_and_bad_witness(tmp_path):
    outs = run_ops("compose-equiv", tmp_path,
                   ["equiv spt Z3 1 1", "equiv spt Z3 1 2"])
    same_op, same = outs["equiv spt Z3 1 1"]
    diff_op, diff = outs["equiv spt Z3 1 2"]
    same_op.check(same)
    diff_op.check(diff)
    rejects(same_op, {"equivalent": False}, "verdict")
    rejects(diff_op, dict(same, equivalent=True), "verdict")
    bad = copy.deepcopy(same)
    bad["gauge"]["vertex"][0]["value"] = {"turns": "1/7"}
    rejects(same_op, bad, "witness")


def test_compose_rejects_wrong_composite_twist(tmp_path):
    (op, out), = run_ops("compose-equiv", tmp_path, ["compose toric_code 1 2"]).values()
    op.check(out)
    bad = copy.deepcopy(out)
    bad["t"]["entries"] = [{"args": [1, 1], "value": 1}]
    rejects(op, bad, "composite twist")


def test_enumerate_rejects_class_straddling_fractionalization(tmp_path):
    (op, out), = run_ops("enumerate-z2x2", tmp_path, ["enumerate"]).values()
    op.check(out)
    frac = {e["theory_index"]: e["fractionalization_class"]
            for e in out["entries"] if not e["obstructed"]}
    bad = copy.deepcopy(out)
    classes = bad["equivalence_collapse"]
    first = classes[0]
    other = next(c for c in classes
                 if frac[c["members"][0]] != frac[first["members"][0]])
    moved = other["members"].pop()
    first["members"].append(moved)
    if not other["members"]:
        classes.remove(other)
    rejects(op, bad, "straddles")
