import cmath
import errno
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gxbtc import category as cat
from gxbtc import cli
from gxbtc import constructions as cons
from gxbtc import equivalence as eq
from gxbtc import groups, torsor
from gxbtc.cli import main
from gxbtc.errors import NotACocycle
from gxbtc.groups import (
    Cochain,
    FiniteGroup,
    U1Module,
    cochain_to_json,
    cohomology,
    phase_from_json,
)

import oracles

Z2 = FiniteGroup.cyclic(2)


@pytest.fixture()
def toric_file(tmp_path, toric):
    path = tmp_path / "toric.json"
    path.write_text(json.dumps(cat.theory_to_json(toric)))
    return str(path)


@pytest.fixture()
def toric_z2_file(tmp_path, toric_z2):
    path = tmp_path / "toric_z2.json"
    path.write_text(json.dumps(cat.theory_to_json(toric_z2)))
    return str(path)


def write_twist(tmp_path, theory, value, name="t.json"):
    module = cat.abelian_subgroup(theory)
    t = Cochain(theory.group, 2, module, {(1, 1): value})
    path = tmp_path / name
    path.write_text(json.dumps(cochain_to_json(t)))
    return str(path)


class TestCheck:
    def test_valid_theory_exits_zero(self, toric_z2_file, capsys):
        assert main(["check", toric_z2_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["reports"]["pentagon"]["worst_residual"] < 1e-9

    def test_broken_theory_exits_one(self, tmp_path, toric_z2, capsys):
        blob = cat.theory_to_json(toric_z2)
        blob["F"][37]["value"] = {"re": -1.0, "im": 0.0}
        for entry in blob["F"]:
            if all(toric_z2.grade(c) == 1 for c in entry["charges"][:3]):
                entry["value"] = {"turns": "1/2"}
                break
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(blob))
        assert main(["check", str(path)]) == 1

    @pytest.mark.parametrize("table, key, note", [
        ("F", [5, 5, 1, 1, 0, 4], "missing F entry at (5, 5, 1, 1, 0, 4)"),
        ("R", [1, 2, 3], "missing R entry at (1,2,3)"),
        ("U", [1, 1, 2, 3], "missing U entry at (1,1,2,3)"),
        ("eta", [3, 1, 1], "missing eta entry at (3,1,1)"),
    ])
    def test_missing_entry_exits_one_with_structure_note(
            self, tmp_path, toric_z2, capsys, table, key, note):
        # every sweep reads the entry as 0, a quotient by it too, and fails
        # with a finite residual; the structure report names the entry
        key_of = {"F": lambda e: e["charges"], "R": lambda e: e["charges"],
                  "U": lambda e: [e["sheet"], *e["charges"]],
                  "eta": lambda e: [e["charge"], *e["pair"]]}[table]
        blob = cat.theory_to_json(toric_z2)
        kept = [e for e in blob[table] if key_of(e) != key]
        assert len(kept) == len(blob[table]) - 1
        blob[table] = kept
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(blob))
        assert main(["check", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        reports = payload["reports"]
        assert reports.pop("structure") == [note]
        residuals = [rep["worst_residual"] for rep in reports.values()]
        assert all(math.isfinite(r) for r in residuals)
        assert max(residuals) >= 1.0
        if table == "eta":
            assert reports["kappa-sliding"]["worst_residual"] >= 1.0

    def test_malformed_file_exits_65(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 65

    def test_usage_error_exits_64(self):
        assert main(["check"]) == 64

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--json"]])
    def test_removed_flags_are_usage_errors(self, toric_file, flag):
        assert main(["check", toric_file, *flag]) == 64

    @pytest.mark.parametrize("argv", [
        ["check", "T.json", "--root-order", "8"],
        ["equiv", "A.json", "B.json", "--root-order", "8"],
        ["compose", "T.json", "--t1", "t1.json", "--t2", "t2.json",
         "--tol", "1e-9"],
        ["cohomology", "--group", "Z2", "--coeff", "u1", "--degree", "3",
         "--tol", "1e-9"],
    ], ids=["check-root-order", "equiv-root-order", "compose-tol",
            "cohomology-tol"])
    def test_unread_options_are_usage_errors(self, argv, capsys):
        # each command takes only the options it reads
        assert main(argv) == 64
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_internal_error_exits_70(self, tmp_path, toric_z2, toric_z2_file,
                                     monkeypatch, capsys):
        from gxbtc import torsor

        def broken(first, second):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(torsor, "cohomologous", broken)
        t = write_twist(tmp_path, toric_z2, 1)
        assert main(["torsor", toric_z2_file, "--t", t]) == 70
        assert "internal error: ZeroDivisionError: bug" in capsys.readouterr().err

    def test_abelian_charges_not_closed_exits_65(self, tmp_path, toric_z2,
                                                 capsys):
        # f regraded: e x m = f leaves the identity-graded abelian charges
        blob = cat.theory_to_json(toric_z2)
        blob["charges"][3]["grade"] = 1
        path = tmp_path / "regraded.json"
        path.write_text(json.dumps(blob))
        t = tmp_path / "t.json"
        t.write_text(json.dumps({"degree": 2, "entries": []}))
        assert main(["torsor", str(path), "--t", str(t)]) == 65
        assert "do not form a group" in capsys.readouterr().err


def _set_fusion_entry(blob):
    blob["fusion"][1] = [0, 1, 99]


def _set_grade(blob):
    blob["charges"][1]["grade"] = 7


def _set_action_image(blob):
    blob["action"][1][2] = 42


def _set_vacuum(blob):
    blob["vacuum"] = 8


def _repeat_action_image(blob):
    # in range, but the nontrivial element sends e and m both to e
    blob["action"][1][2] = 1


class TestIndexRanges:
    @pytest.mark.parametrize("mutate", [_set_fusion_entry, _set_grade,
                                        _set_action_image, _set_vacuum,
                                        _repeat_action_image])
    @pytest.mark.parametrize("command", ["check", "equiv"])
    def test_out_of_range_index_exits_65(self, tmp_path, toric_z2,
                                         toric_z2_file, capsys, mutate,
                                         command):
        blob = cat.theory_to_json(toric_z2)
        mutate(blob)
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(blob))
        argv = [command, str(path)]
        if command == "equiv":
            argv.append(toric_z2_file)
        assert main(argv) == 65
        assert "malformed theory JSON" in capsys.readouterr().err


def _turns_over_zero(blob):
    blob["F"][5]["value"] = {"turns": "1/0"}


def _turns_not_numbers(blob):
    blob["R"][3]["value"] = {"turns": "a/b"}


def _turns_not_text(blob):
    blob["eta"][9]["value"] = {"turns": 1}


def _re_not_a_number(blob):
    blob["F"][5]["value"] = {"re": "abc"}


def _re_not_finite(blob):
    blob["U"][9]["value"] = {"re": float("nan"), "im": 0.0}


def _f_charge_out_of_range(blob):
    blob["F"][5]["charges"][2] = 99


def _f_key_too_short(blob):
    blob["F"][5]["charges"] = blob["F"][5]["charges"][:2]


def _r_charge_not_int(blob):
    blob["R"][3]["charges"][0] = "e"


def _u_sheet_out_of_range(blob):
    blob["U"][5]["sheet"] = 7


def _eta_element_out_of_range(blob):
    blob["eta"][5]["pair"][0] = 7


def _drop_f_entry(blob):
    del blob["F"][5]


def _repeat_entry(table, index):
    """Insert before one entry of ``table`` a copy with another value, so a
    reader keeping the last of each key would load a consistent theory."""
    def mutate(blob):
        entry = json.loads(json.dumps(blob[table][index]))
        entry["value"] = {"turns": "1/3"}
        blob[table].insert(index, entry)
    mutate.__name__ = f"_repeated_{table.lower()}_key"
    return mutate


# mutation -> exit code of ``check``; torsor and equiv exit 65 on all of them
TABLE_MUTATIONS = {
    _turns_over_zero: 65, _turns_not_numbers: 65, _turns_not_text: 65,
    _re_not_a_number: 65, _re_not_finite: 65,
    _f_charge_out_of_range: 65, _f_key_too_short: 65, _r_charge_not_int: 65,
    _u_sheet_out_of_range: 65, _eta_element_out_of_range: 65,
    _repeat_entry("F", 5): 65, _repeat_entry("R", 3): 65,
    _repeat_entry("U", 9): 65, _repeat_entry("eta", 9): 65,
    # well-formed JSON of an incomplete theory: check reports the gap
    _drop_f_entry: 1,
}


class TestMalformedTables:
    @pytest.mark.parametrize("mutate", list(TABLE_MUTATIONS),
                             ids=lambda m: m.__name__.strip("_"))
    @pytest.mark.parametrize("command", ["check", "torsor", "equiv",
                                         "equiv-reversed"])
    def test_exits_with_input_error(self, tmp_path, toric_z2, toric_z2_file,
                                    capsys, mutate, command):
        blob = cat.theory_to_json(toric_z2)
        mutate(blob)
        bad = tmp_path / "mutated.json"
        bad.write_text(json.dumps(blob))
        twist = tmp_path / "t.json"
        twist.write_text(json.dumps({"degree": 2, "entries": []}))
        argv = {"check": ["check", str(bad)],
                "torsor": ["torsor", str(bad), "--t", str(twist)],
                "equiv": ["equiv", toric_z2_file, str(bad)],
                "equiv-reversed": ["equiv", str(bad), toric_z2_file]}[command]
        expected = TABLE_MUTATIONS[mutate] if command == "check" else 65
        assert main(argv) == expected
        assert "Traceback" not in capsys.readouterr().err


def _twist_json(args=(1, 1), value=1, degree=2):
    return {"degree": degree, "entries": [{"args": list(args), "value": value}]}


def _first_one_to_true(rows):
    """Replace the first index 1 in ``rows`` by JSON true (equal to 1 in
    Python, so a reader that lets bools through loads the same theory)."""
    def mutate(blob):
        for row in rows(blob):
            if 1 in row:
                row[row.index(1)] = True
                return
    return mutate


# case -> the cochain file ("t" or "x") or the theory mutation it feeds in
BOUNDARY_CASES = {
    "t-args-out-of-range": ("t", _twist_json(args=[1, 5])),
    "t-args-float": ("t", _twist_json(args=[1.9, 1])),
    "t-args-text": ("t", _twist_json(args=["1", 1])),
    "t-args-bool": ("t", _twist_json(args=[True, True])),
    "t-args-too-few": ("t", _twist_json(args=[1])),
    "t-charge-float": ("t", _twist_json(value=1.0)),
    "t-charge-bool": ("t", _twist_json(value=True)),
    "t-degree-bool": ("t", _twist_json(degree=True)),
    "t-degree-float": ("t", _twist_json(degree=2.0)),
    "x-phase-bool": ("x", _twist_json(args=[1, 1, 1], value=True, degree=3)),
    "group-factor-bool": ("theory", lambda blob: blob.update(
        group={"cyclic": [2, True]})),
    "vacuum-bool": ("theory", lambda blob: blob.update(vacuum=False)),
    "grade-bool": ("theory", lambda blob: blob["charges"][4].update(
        grade=True)),
    "fusion-bool": ("theory", _first_one_to_true(lambda blob: blob["fusion"])),
    "f-key-bool": ("theory", _first_one_to_true(
        lambda blob: (e["charges"] for e in blob["F"]))),
    "dual-bool": ("theory", _first_one_to_true(lambda blob: [blob["dual"]])),
    "f-value-bool": ("theory", lambda blob: blob["F"][5].update(value=True)),
    "f-value-text": ("theory", lambda blob: blob["F"][5].update(
        value={"re": "1", "im": "0"})),
    "f-value-beyond-float": ("theory", lambda blob: blob["F"][5].update(
        value={"re": 10 ** 400})),
    # a turn text is ASCII [+-]?[0-9]+(/[0-9]+)? with q >= 1, not what int()
    # reads: no digit separator, no space, no other digits, no sign on q
    "f-turns-underscore": ("theory", lambda blob: blob["F"][5].update(
        value={"turns": "1_0/3"})),
    "f-turns-spaces": ("theory", lambda blob: blob["F"][5].update(
        value={"turns": " 1/ 2"})),
    "f-turns-arabic-indic": ("theory", lambda blob: blob["F"][5].update(
        value={"turns": "\u0661/\u0662"})),
    "f-turns-negative-denominator": ("theory", lambda blob: blob["F"][5].update(
        value={"turns": "1/-4"})),
}


class TestJsonBoundary:
    @pytest.mark.parametrize("case", list(BOUNDARY_CASES))
    def test_malformed_number_exits_65(self, tmp_path, toric_z2,
                                       toric_z2_file, capsys, case):
        # bools, floats and texts are not indices, an index must be in range,
        # and a phase part is a JSON number that fits a float: the cochain
        # or theory is malformed, never silently reread
        where, change = BOUNDARY_CASES[case]
        if where == "theory":
            blob = cat.theory_to_json(toric_z2)
            change(blob)
            (tmp_path / "mutated.json").write_text(json.dumps(blob))
            argv = ["check", str(tmp_path / "mutated.json")]
        else:
            files = {"t": _twist_json(), "x": _twist_json((1, 1, 1), 1.0, 3),
                     where: change}
            argv = ["torsor", toric_z2_file]
            for name, obj in files.items():
                (tmp_path / f"{name}.json").write_text(json.dumps(obj))
                argv += [f"--{name}", str(tmp_path / f"{name}.json")]
        assert main(argv) == 65
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000,
        b"[" + b"9" * 5000 + b"]"],
        ids=["not-utf8", "nested-100000-deep", "int-of-5000-digits"])
    @pytest.mark.parametrize("command", ["check", "equiv", "torsor-t"])
    def test_unreadable_file_exits_65(self, tmp_path, toric_z2_file, capsys,
                                      content, command):
        # files are read as UTF-8, and a nesting too deep for the decoder or
        # an int longer than int() reads is malformed input: one line that
        # names the file, no traceback
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        argv = {"check": ["check", str(path)],
                "equiv": ["equiv", toric_z2_file, str(path)],
                "torsor-t": ["torsor", toric_z2_file, "--t", str(path)]}[command]
        assert main(argv) == 65
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot read {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestTorsorCommands:
    def test_torsor_solve_and_check(self, tmp_path, toric_z2, toric_z2_file,
                                    capsys):
        tfile = write_twist(tmp_path, toric_z2, 3)
        out = tmp_path / "twisted.json"
        code = main(["torsor", toric_z2_file, "--t", tfile, "--solve-x",
                     "-o", str(out)])
        assert code == 0
        capsys.readouterr()
        assert main(["check", str(out)]) == 0

    @pytest.mark.parametrize("order", [2, 3])
    def test_fibonacci_extension_solves_and_checks(self, tmp_path, fib, order,
                                                   capsys):
        # non-abelian fusion: the defect phase sums the pentagon's h-terms
        # before the quotient, so it does not depend on the charges
        ext = tmp_path / "fib.json"
        ext.write_text(json.dumps(cat.theory_to_json(
            cons.trivial_extension(fib, FiniteGroup.cyclic(order)))))
        t = tmp_path / "t.json"
        t.write_text(json.dumps({"degree": 2, "entries": []}))
        out = tmp_path / "twisted.json"
        assert main(["torsor", str(ext), "--t", str(t), "--solve-x",
                     "-o", str(out)]) == 0
        assert main(["check", str(out), "-o", str(tmp_path / "r.json")]) == 0

    def test_x_and_solve_x_are_exclusive(self, capsys):
        assert main(["torsor", "T.json", "--t", "t.json", "--x", "x.json",
                     "--solve-x"]) == 64
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, found, expected", [("x", 2, 3), ("t", 3, 2)])
    def test_wrong_cochain_degree_exits_65_before_twisting(
            self, tmp_path, toric_z2_file, capsys, monkeypatch, flag, found,
            expected):
        def twist(*args, **kwargs):
            raise AssertionError("a twisted table was built")

        monkeypatch.setattr(torsor, "apply_torsor", twist)
        files = {"t": _twist_json(), "x": _twist_json((1, 1, 1), 1.0, 3)}
        files[flag] = _twist_json((1,) * found, 1, found)
        argv = ["torsor", toric_z2_file]
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
            argv += [f"--{name}", str(tmp_path / f"{name}.json")]
        assert main(argv) == 65
        err = capsys.readouterr().err
        assert f"{tmp_path / flag}.json: expected a degree-{expected} " \
               f"cochain, got degree {found}" in err

    def test_obstruction_report(self, tmp_path, toric_z2, toric_z2_file, capsys):
        tfile = write_twist(tmp_path, toric_z2, 3)
        assert main(["obstruction", toric_z2_file, "--t", tfile]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trivial_class"] is True
        entry = {tuple(e["args"]): e["value"]
                 for e in payload["obstruction"]["entries"]}
        assert entry[(1, 1, 1, 1)] == {"turns": "1/2"}

    def test_compose_roundtrip(self, tmp_path, toric_z2, toric_z2_file, capsys):
        t1 = write_twist(tmp_path, toric_z2, 1, "t1.json")
        t2 = write_twist(tmp_path, toric_z2, 2, "t2.json")
        assert main(["compose", toric_z2_file, "--t1", t1, "--t2", t2]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = {tuple(e["args"]): e["value"] for e in payload["t"]["entries"]}
        assert entries[(1, 1)] == 3  # e fused with m


class TestActionRules:
    """``category.validate`` and ``torsor.torsored_action`` report the same
    action rules (``category.action_violations``)."""

    @pytest.fixture()
    def cycled_file(self, tmp_path, toric_z2):
        # the generator cycles e -> m -> f -> e in both grades: fusion and
        # grades are kept, but acting twice is not acting by the identity
        cycled = toric_z2.replace(
            action={0: tuple(range(8)), 1: (0, 2, 3, 1, 4, 6, 7, 5)})
        path = tmp_path / "cycled.json"
        path.write_text(json.dumps(cat.theory_to_json(cycled)))
        return str(path)

    def test_check_lists_the_rule(self, cycled_file, capsys):
        assert main(["check", cycled_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"]["structure"] == [
            "action is not a homomorphism at (1,1)"]

    def test_compose_names_the_rule(self, tmp_path, toric_z2, cycled_file,
                                    capsys):
        t = write_twist(tmp_path, toric_z2, toric_z2.vacuum)
        assert main(["compose", cycled_file, "--t1", t, "--t2", t]) == 65
        assert capsys.readouterr().err == (
            "input error: twisted action is not a homomorphism at (1,1)\n")


class TestEquiv:
    def test_self_equivalence(self, toric_z2_file, capsys):
        assert main(["equiv", toric_z2_file, toric_z2_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is True

    def test_distinct_theories(self, tmp_path, capsys):
        trivial = cons.build_spt(Z2, Cochain.identity(Z2, 3, U1Module(8)))
        nontrivial = cons.build_spt(
            Z2, Cochain(Z2, 3, U1Module(8), {(1, 1, 1): complex(-1.0)}))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(cat.theory_to_json(trivial)))
        b.write_text(json.dumps(cat.theory_to_json(nontrivial)))
        assert main(["equiv", str(a), str(b)]) == 1

    def test_budget_counts_structure_preserving_relabelings(
            self, tmp_path, toric_z2, toric_z2_file, capsys):
        # e and f swapped in both grades: the witness is the 13th relabeling
        # that keeps the vacuum, fusion and action, and the 76th
        # grade-preserving one
        moved = eq.relabel(toric_z2, eq.Relabeling((0, 3, 2, 1, 4, 7, 6, 5)))
        path = tmp_path / "moved.json"
        path.write_text(json.dumps(cat.theory_to_json(moved)))
        argv = ["equiv", toric_z2_file, str(path), "--budget"]
        assert main([*argv, "12"]) == 2
        assert json.loads(capsys.readouterr().out)["reason"] == \
            "examined 12 relabelings without a verdict"
        assert main([*argv, "13"]) == 0

    def test_charges_in_another_order(self, tmp_path, toric_z2, toric_z2_file,
                                      capsys):
        # charges 1 and 4 (grades 0 and 1) exchanged in every table, each
        # keeping its grade: the same theory written in another order
        blob = swap_charges(cat.theory_to_json(toric_z2), 1, 4)
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(blob))
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        assert main(["equiv", toric_z2_file, str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        gauge = eq.GaugeTransform(
            {tuple(v["charges"]): phase_from_json(v["value"])
             for v in payload["gauge"]["vertex"]},
            {(s["charge"], s["element"]): phase_from_json(s["value"])
             for s in payload["gauge"]["sheet"]})
        moved = eq.apply_gauge(
            eq.relabel(toric_z2, eq.Relabeling(tuple(payload["relabeling"]))),
            gauge)
        copy = cat.theory_from_json(blob)
        assert moved.grades == copy.grades
        assert cat.tables_distance(moved, copy) < 1e-9


def swap_charges(blob, a, b):
    """Theory JSON ``blob`` with charges ``a`` and ``b`` exchanged."""
    perm = list(range(len(blob["charges"])))
    perm[a], perm[b] = b, a
    out = json.loads(json.dumps(blob))
    out["charges"] = [blob["charges"][p] for p in perm]
    out["vacuum"] = perm[blob["vacuum"]]
    out["dual"] = [perm[blob["dual"][p]] for p in perm]
    out["fusion"] = [[perm[x] for x in t] for t in blob["fusion"]]
    out["action"] = [[perm[row[p]] for p in perm] for row in blob["action"]]
    for table in ("F", "R", "U"):
        for entry in out[table]:
            entry["charges"] = [perm[x] for x in entry["charges"]]
    for entry in out["eta"]:
        entry["charge"] = perm[entry["charge"]]
    return out


class TestCohomology:
    def test_h3_z2(self, capsys):
        assert main(["cohomology", "--group", "Z2", "--coeff", "u1",
                     "--degree", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pretty"] == "Z2"
        assert payload["orders"] == [2]

    def test_h2_z2_charges(self, capsys):
        assert main(["cohomology", "--group", "Z2", "--coeff", "z2x2",
                     "--degree", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orders"] == [2, 2]

    @pytest.mark.parametrize("coeff", ["foo", "z2x", "2", "z0", "Z2xx2", "u2", ""])
    def test_malformed_coeff_exits_65(self, capsys, coeff):
        argv = ["cohomology", "--group", "Z2", "--coeff", coeff, "--degree", "2"]
        assert main(argv) == 65
        err = capsys.readouterr().err
        assert f"unknown coefficient spec {coeff!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("coeff, orders", [
        ("z2x2", [2, 2]), ("Z2xZ2", [2, 2]), ("z2", [2]), ("z1", []), ("U1", []),
    ], ids=["z2x2", "Z2xZ2", "z2", "z1", "U1"])
    def test_coeff_spec(self, capsys, coeff, orders):
        argv = ["cohomology", "--group", "Z2", "--coeff", coeff, "--degree", "2"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["orders"] == orders


class TestGroupSpec:
    @pytest.mark.parametrize("spec", ["Z2x", "Z2xx2", "Z2x2x", "ZZ2", "Z+2",
                                      "Z 2", "Z02", "Z2x-2", "Z0", "2",
                                      "Z2x2y", "Z2*Z3", ""])
    @pytest.mark.parametrize("command", ["cohomology", "build"])
    def test_malformed_spec_exits_65(self, capsys, spec, command):
        argv = {"cohomology": ["cohomology", "--group", spec, "--coeff", "u1",
                               "--degree", "2"],
                "build": ["build", "spt", "--group", spec]}[command]
        assert main(argv) == 65
        err = capsys.readouterr().err
        assert f"unknown group spec {spec!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, factors", [
        ("Z2x2", [2, 2]), ("Z6", [6]), ("Z2xZ3", [2, 3]), ("z2X2", [2, 2]),
        ("Z2xz2x4", [2, 2, 4]), ("Z1", [1]), ("Z12", [12]),
    ])
    def test_product_of_cyclic_factors(self, spec, factors):
        assert cli._parse_group(spec) == FiniteGroup.from_cyclic_factors(factors)


class TestRootOrder:
    """--root-order takes a positive int on every command that reads it;
    0 no longer stands for the default."""

    @pytest.fixture()
    def argvs(self, tmp_path, toric_file, toric_z2, toric_z2_file):
        t1 = write_twist(tmp_path, toric_z2, 1, "t1.json")
        t2 = write_twist(tmp_path, toric_z2, 2, "t2.json")
        return [
            ["torsor", toric_z2_file, "--t", t1],
            ["torsor", toric_z2_file, "--t", t1, "--solve-x"],
            ["obstruction", toric_z2_file, "--t", t1],
            ["compose", toric_z2_file, "--t1", t1, "--t2", t2],
            ["cohomology", "--group", "Z2", "--coeff", "u1", "--degree", "3"],
            ["build", "spt", "--group", "Z2"],
            ["enumerate-extensions", "--c0", toric_file, "--group", "Z2"],
        ]

    @pytest.mark.parametrize("order", ["0", "-2"])
    def test_not_positive_exits_65(self, tmp_path, argvs, capsys, order):
        for argv in argvs:
            out = str(tmp_path / "out.json")
            assert main([*argv, "--root-order", order, "-o", out]) == 65, argv
            assert "root order must be positive" in capsys.readouterr().err
            assert not os.path.exists(out)

    def test_positive_is_read(self, tmp_path, argvs, capsys):
        for argv in argvs:
            out = str(tmp_path / "out.json")
            assert main([*argv, "--root-order", "4", "-o", out]) == 0, argv


class TestBuild:
    def test_build_fixture(self, capsys):
        assert main(["build", "toric-code"]) == 0
        payload = json.loads(capsys.readouterr().out)
        theory = cat.theory_from_json(payload)
        assert theory.num_charges == 4

    def test_build_spt_and_trivial_ext(self, tmp_path, toric_file, capsys):
        assert main(["build", "spt", "--group", "Z2"]) == 0
        capsys.readouterr()
        out = tmp_path / "ext.json"
        assert main(["build", "trivial-ext", "--c0", toric_file,
                     "-o", str(out)]) == 0
        theory = cat.theory_from_json(json.loads(out.read_text()))
        assert theory.num_charges == 8

    @pytest.mark.parametrize("argv", [
        ["build", "toric-code", "--root-order", "5"],
        ["build", "toric-code", "--tol", "0.5"],
        ["build", "semion", "--group", "Z7"],
        ["build", "fibonacci", "--alpha", "a.json"],
        ["build", "z4-anyons", "--c0", "c0.json"],
        ["build", "trivial-ext", "--c0", "c0.json", "--root-order", "8"],
        ["build", "trivial-ext", "--c0", "c0.json", "--alpha", "a.json"],
        ["build", "spt", "--c0", "c0.json"],
        ["build", "spt", "--tol", "1e-9"],
        ["build", "trivial-ext"],
        ["build", "no-such-kind"],
    ], ids=["fixture-root-order", "fixture-tol", "fixture-group",
            "fixture-alpha", "fixture-c0", "trivial-ext-root-order",
            "trivial-ext-alpha", "spt-c0", "spt-tol", "trivial-ext-without-c0",
            "unknown-kind"])
    def test_options_of_other_builders_are_usage_errors(self, argv, capsys):
        # each builder takes only the options it reads
        assert main(argv) == 64
        assert "usage error" in capsys.readouterr().err


class TestEnumerate:
    def test_toric_z2_classification(self, toric_file, capsys):
        assert main(["enumerate-extensions", "--c0", toric_file,
                     "--group", "Z2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fractionalization_classes"] == [2, 2]
        assert payload["defectification_classes"] == [2]
        assert len(payload["entries"]) == 8
        assert all(not e["obstructed"] for e in payload["entries"])

    def test_deterministic_output(self, toric_file, capsys):
        main(["enumerate-extensions", "--c0", toric_file, "--group", "Z2"])
        first = capsys.readouterr().out
        main(["enumerate-extensions", "--c0", toric_file, "--group", "Z2"])
        second = capsys.readouterr().out
        assert first == second


    def test_one_theory_assembled_per_unobstructed_class(self, tmp_path,
                                                         monkeypatch, capsys):
        # the command emits no theory; the collapse reads one per class
        stacked = []
        real = torsor.stack_coefficients

        def counting(theory, x, **changes):
            stacked.append(x)
            return real(theory, x, **changes)

        monkeypatch.setattr(torsor, "stack_coefficients", counting)
        path = tmp_path / "semion.json"
        path.write_text(json.dumps(cat.theory_to_json(cons.semion())))
        assert main(["enumerate-extensions", "--c0", str(path),
                     "--group", "Z2x2"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        unobstructed = {e["fractionalization_class"] for e in entries
                        if not e["obstructed"]}
        assert sum(not e["obstructed"] for e in entries) == 40
        assert len(unobstructed) == 5
        assert len(stacked) == 5

    def test_toric_z4_classes(self, toric_file, capsys):
        assert main(["enumerate-extensions", "--c0", toric_file,
                     "--group", "Z4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["members"] for c in payload["equivalence_collapse"]] == [
            [0], [1], [2], [3], [4, 6], [5, 7], [8, 10], [9, 11], [12, 14],
            [13, 15]]


@pytest.mark.parametrize("c0, group", [
    (cons.toric_code, [2]),
    (cons.toric_code, [3]),
    (cons.semion, [2]),
    (cons.semion, [2, 2]),
])
def test_orbit_collapse_matches_gauge_search(c0, group):
    base = cons.trivial_extension(c0(), FiniteGroup.from_cyclic_factors(group))
    order = torsor.default_root_order(base)
    _, h3, extensions = torsor.enumerate_extensions(base, order)
    unobstructed = [ext for ext in extensions if ext.theory is not None]
    expected = oracles.gauge_search_collapse(
        base, cat.abelian_subgroup(base),
        [(None, ext.theory) for ext in unobstructed], 1e-9)
    assert cli._collapse_classes(base, h3, unobstructed) == expected


class TestCollapseClosure:
    """The collapse tests each omega_z closed once, through h3.class_of."""

    @pytest.fixture(scope="class")
    def semion_z22_collapse(self):
        base = cons.trivial_extension(
            cons.semion(), FiniteGroup.from_cyclic_factors([2, 2]))
        _, h3, extensions = torsor.enumerate_extensions(base)
        return base, h3, [ext for ext in extensions if not ext.obstructed]

    def test_each_omega_tested_closed_once(self, semion_z22_collapse,
                                           monkeypatch):
        built, passes = [], []
        real_build = eq.relabel_cochain
        real_blocks = groups._coboundary_blocks

        def building(*args):
            built.append(real_build(*args))
            return built[-1]

        def counting(cochain):
            passes.append(cochain)
            return real_blocks(cochain)

        monkeypatch.setattr(eq, "relabel_cochain", building)
        monkeypatch.setattr(groups, "_coboundary_blocks", counting)
        cli._collapse_classes(*semion_z22_collapse)
        assert len(built) == 20
        assert [id(c) for c in passes if c.degree == 3] == [id(c) for c in built]

    def test_non_closed_omega_raises(self, semion_z22_collapse, monkeypatch):
        base, h3, unobstructed = semion_z22_collapse
        real = eq._relabel_phases

        def broken(theory, z):
            phases = real(theory, z)
            phases[(1, 1, 1)] = -phases[(1, 1, 1)]
            return phases

        monkeypatch.setattr(eq, "_relabel_phases", broken)
        with pytest.raises(NotACocycle, match="has nontrivial coboundary"):
            cli._collapse_classes(base, h3, unobstructed)
        z = Cochain.identity(base.group, 1, cat.abelian_subgroup(base))
        with pytest.raises(NotACocycle, match="has nontrivial coboundary"):
            groups.validate_cocycle(
                eq.relabel_cochain(unobstructed[0].theory, z), degree=3)


class TestRoundtrip:
    def test_emitted_theory_reloads(self, tmp_path, toric_z2, toric_z2_file,
                                    capsys):
        tfile = write_twist(tmp_path, toric_z2, 1)
        out = tmp_path / "out.json"
        main(["torsor", toric_z2_file, "--t", tfile, "--solve-x", "-o", str(out)])
        theory = cat.theory_from_json(json.loads(out.read_text()))
        assert cat.validate(theory) == []
        reserialized = cat.theory_to_json(theory)
        assert json.dumps(reserialized, sort_keys=True) == \
            json.dumps(json.loads(out.read_text()), sort_keys=True)


class TestSemionEnumerate:
    def test_defectification_classes_collapse(self, tmp_path, semion_theory,
                                              capsys):
        path = tmp_path / "semion.json"
        path.write_text(json.dumps(cat.theory_to_json(semion_theory)))
        assert main(["enumerate-extensions", "--c0", str(path),
                     "--group", "Z2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["entries"]) == 4
        collapses = [c for c in payload["equivalence_collapse"]
                     if c.get("verdict") == "collapsed"]
        assert any(sorted(c["members"]) == [0, 1] for c in collapses)


def stdout_digest(capsys, argv, code=0):
    assert main(argv) == code
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


class TestGoldenOutputs:
    """SHA-256 of outputs that run through Smith forms and their transforms,
    and of pentagon reports with float residuals.

    The representatives and the gauge witness are canonical only for a
    fixed elimination order, so a change of pivot choice or row-operation
    order shows up here even when every result stays mathematically valid.
    A residual or a failing tuple's sides change with the last bit of any
    product or with the order of the failures.
    """

    @pytest.mark.parametrize("group, coeff, degree, digest", [
        ("Z2x2", "u1", 3,
         "1d55c7494f0b37895b74667d2ded374aa09dfb80117b1f32670226c55d53b968"),
        ("Z4", "u1", 4,
         "45a9fe1be0351fbca09687a1099b98a66bab567ac5022bcd8629614d27435ad2"),
        ("Z2x2", "z2x2", 3,
         "1ba19acd6948fb3f02a82825f598fd9c9a5c937e16d69eaebcb0e75528ef9f54"),
        # representatives checked by tests/test_groups.py: closed, of exact
        # order d_i, with unit class coordinates
        ("Z6", "u1", 3,
         "384a565727f49cb0fd00fc30ef411ce907d00ce9ca22ea660679d1ea02e06c1c"),
        ("Z2x2", "u1", 4,
         "6c21c05740b3e81b8ed0bda9565d6025a37709b34dd7c9c001003532099e989d"),
    ], ids=["Z2x2-u1-3", "Z4-u1-4", "Z2x2-z2x2-3", "Z6-u1-3", "Z2x2-u1-4"])
    def test_cohomology(self, capsys, group, coeff, degree, digest):
        argv = ["cohomology", "--group", group, "--coeff", coeff,
                "--degree", str(degree)]
        assert stdout_digest(capsys, argv) == digest

    def test_cohomology_s3(self):
        # H^3(S3, U(1)) = Z6 through the library, written as the benchmark
        # writes it; the CLI parses only products of cyclic groups
        perms = list(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms]
                 for p in perms]
        result = cohomology(FiniteGroup.from_table(table, "S3"), 3, U1Module(24))
        text = json.dumps({"orders": result.orders, "representatives":
                           [cochain_to_json(r) for r in result.representatives]},
                          sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "7fa8c2c9c78bb0ada8580505896f55aaf0fe2fa582b9d5b94a40bd00c747eb17"

    @pytest.mark.parametrize("c0, group, digest", [
        (cons.semion, "Z2x2",
         "049de608c46fa92794996202e7a6f659084f6ef878f8da6510446683af0e0015"),
        (cons.toric_code, "Z2",
         "b7cbcd02c207258fefecc7a7b0ca4b0b101df83f8b6b7277392aa1efe1ec90e0"),
    ], ids=["semion-Z2x2", "toric_code-Z2"])
    def test_enumerate_extensions(self, tmp_path, capsys, c0, group, digest):
        path = tmp_path / "c0.json"
        path.write_text(json.dumps(cat.theory_to_json(c0())))
        argv = ["enumerate-extensions", "--c0", str(path), "--group", group]
        assert stdout_digest(capsys, argv) == digest

    def test_equiv_witness(self, tmp_path, toric_z2, toric_z2_file, capsys):
        # toric x Z2 with e and m swapped in both grades, then gauged by
        # mu_8 vertex and sheet phases
        rng = random.Random(5)
        mod = U1Module(8)
        vac = toric_z2.vacuum
        vertex = {(a, b, c): mod.value(rng.randrange(8))
                  for a, b, c in toric_z2.fusion_triples() if vac not in (a, b)}
        sheet = {(a, g): mod.value(rng.randrange(8))
                 for a in toric_z2.charges() if a != vac
                 for g in toric_z2.group.nonidentity()}
        moved = eq.apply_gauge(
            eq.relabel(toric_z2, eq.Relabeling((0, 2, 1, 3, 4, 6, 5, 7))),
            eq.GaugeTransform(vertex, sheet))
        path = tmp_path / "moved.json"
        path.write_text(json.dumps(cat.theory_to_json(moved)))
        assert stdout_digest(capsys, ["equiv", toric_z2_file, str(path)]) == \
            "d13f1595398ac9948abe1fe424246aba07e23be3bb83fe2905cca9275d501ab5"

    @pytest.fixture()
    def in_tmp(self, tmp_path, monkeypatch):
        # ``check`` echoes the theory path, so run on a fixed relative name
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @staticmethod
    def write(theory, name):
        with open(name, "w") as fh:
            json.dump(cat.theory_to_json(theory), fh)
        return name

    @staticmethod
    def perturbed(theory, seed):
        """``theory`` with every F value turned by a seeded small angle."""
        rng = random.Random(seed)
        return theory.replace(f={
            key: value * cmath.exp(1j * rng.uniform(-0.2, 0.2))
            for key, value in sorted(theory.f_entries().items())})

    @pytest.mark.parametrize("cap, digest", [
        ("4",
         "53c3518595d80a6dc86a08ce95f00752474b8ebc68750ebde0d242cb33e60698"),
        ("3",
         "206af09d20a01a7f6d027cfe80b6de6ea6294e5efa9251999284db54008895da"),
    ])
    def test_check_perturbed(self, in_tmp, toric_z2, capsys, cap, digest):
        # toric x Z2 with every F value moved: more than MAX_FAILURES
        # failing tuples, each with float residuals.  ``digest`` is of the
        # report without its "unlisted_failures" counts, which are checked
        # on their own.
        path = self.write(self.perturbed(toric_z2, 11), "perturbed.json")
        assert main(["check", path, "--max-defects", cap]) == 1
        payload = json.loads(capsys.readouterr().out)
        unlisted = {name: report.pop("unlisted_failures")
                    for name, report in payload["reports"].items()
                    if isinstance(report, dict) and "unlisted_failures" in report}
        assert unlisted == {"pentagon": {"4": 4064, "3": 3808}[cap],
                            "heptagon+": 480, "heptagon-": 480, "hexagon": 96}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_check_fibonacci(self, in_tmp, fib, capsys):
        # the pentagon residual is a rounding error of about 1e-16
        path = self.write(fib, "fib.json")
        assert stdout_digest(capsys, ["check", path]) == \
            "7a906e4be010d25d94f6e7a52eb10ae043e5247dddf7bef7a343d6def8b20c67"

    def test_torsor_solve_x(self, in_tmp, toric_z2, capsys):
        # --solve-x reads the coefficients off the defect obstruction
        path = self.write(toric_z2, "toric_z2.json")
        tfile = write_twist(in_tmp, toric_z2, 3)
        argv = ["torsor", path, "--t", tfile, "--solve-x"]
        assert stdout_digest(capsys, argv) == \
            "83e5283f5261c4da7665bccf78ce4c9b1ae3d4ccd1f82127e7a7c973b2602870"

    @pytest.mark.parametrize("kind, digest", [
        ("toric-code",
         "d7fd1baabf1df5dcfc261dcd88059ea4e1bb3ac09e1342cadbc9c34d122d3953"),
        ("semion",
         "57cb1052ccb2267f31e7bcaa2e9f14ceef12299380ecec63ed8dfebf4177cde2"),
        ("double-semion",
         "a155e56449bb47dd6770269f721d0ad07b6c54b4f6f84256382c8a5585142e28"),
        ("z4-anyons",
         "44c3c39c93b4521dac0f57a3be89f5b5adf1563fd318581e62fbb13e115aa9f9"),
        ("fibonacci",
         "e0acff341107bb74925fb9cb9c4986e364d8bc3003cf0388521c91e50654a7d4"),
    ])
    def test_build_fixture(self, capsys, kind, digest):
        assert stdout_digest(capsys, ["build", kind]) == digest

    def test_build_spt(self, in_tmp, capsys):
        # the generator of H^3(Z3, U(1)) = Z3, at the group's root order
        z3 = FiniteGroup.cyclic(3)
        module = U1Module(torsor.default_group_root_order(z3))
        alpha = cohomology(z3, 3, module).representatives[0]
        with open("alpha.json", "w") as fh:
            json.dump(cochain_to_json(alpha), fh)
        argv = ["build", "spt", "--group", "Z3", "--alpha", "alpha.json"]
        assert stdout_digest(capsys, argv) == \
            "81a6de1e18ef83aaf5f36a46e89b605d030d31e7636a5fed4ed9d69f84c0e6f5"

    def test_build_trivial_ext(self, in_tmp, capsys):
        path = self.write(cons.semion(), "semion.json")
        argv = ["build", "trivial-ext", "--c0", path, "--group", "Z2x2"]
        assert stdout_digest(capsys, argv) == \
            "ed577bcf18f2f718786b901f72fe99fece71b26b28e9ae5a162b38cd41b19b75"

    @pytest.mark.parametrize("value, digest", [
        (1,
         "f9db53b3c424b38ee84260b9b0bde9e552b4e6539169530e2e9acd4fbad1921e"),
        (3,
         "585c09c90e1704849879c892bae30245c09ce333e281983855b2f7aff88c9ac2"),
    ])
    def test_obstruction(self, tmp_path, toric_z2, toric_z2_file, capsys,
                         value, digest):
        tfile = write_twist(tmp_path, toric_z2, value)
        argv = ["obstruction", toric_z2_file, "--t", tfile]
        assert stdout_digest(capsys, argv) == digest

    def test_compose(self, tmp_path, toric_z2, toric_z2_file, capsys):
        # e and e x m on toric x Z2 compose to m, with a trivial gauge
        t1 = write_twist(tmp_path, toric_z2, 1, "t1.json")
        t2 = write_twist(tmp_path, toric_z2, 3, "t2.json")
        argv = ["compose", toric_z2_file, "--t1", t1, "--t2", t2]
        assert stdout_digest(capsys, argv) == \
            "0cdf997c6b173fecc6d8f7d4baff6aa818e4eb69a2530d5624be37fa8398ffd3"


def run_cli(argv, stdout):
    """Run ``python -m gxbtc.cli`` in a fresh interpreter with a buffered
    stdout; its exit code and stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-m", "gxbtc.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          text=True, timeout=120)
    return done.returncode, done.stderr


class TestOutputErrors:
    """An output that cannot be opened, written or closed exits 74 with
    one ``output error`` line and no traceback."""

    @staticmethod
    def assert_output_error(err, reason):
        assert err.startswith("output error: ")
        assert reason in err
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.json"
        assert main(["build", "toric-code", "-o", str(out)]) == 74
        self.assert_output_error(capsys.readouterr().err,
                                 "No such file or directory")
        assert not out.parent.exists()

    def test_output_is_a_directory(self, tmp_path, capsys):
        assert main(["build", "toric-code", "-o", str(tmp_path)]) == 74
        self.assert_output_error(capsys.readouterr().err, "Is a directory")
        assert tmp_path.is_dir()

    # a text shorter than stdout's buffer, and a longer one
    STDOUT_ARGVS = pytest.mark.parametrize("argv", [
        ["cohomology", "--group", "Z2", "--coeff", "u1", "--degree", "3"],
        ["build", "toric-code"]], ids=["short", "long"])

    @STDOUT_ARGVS
    def test_closed_pipe(self, argv):
        # gxbtc cohomology ... | head -c 0
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, err = run_cli(argv, write_end)
        finally:
            os.close(write_end)
        assert code == 74
        self.assert_output_error(err, "Broken pipe")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a /dev/full device")
    @STDOUT_ARGVS
    def test_full_device(self, argv):
        # gxbtc build toric-code > /dev/full
        with open("/dev/full", "w") as full:
            code, err = run_cli(argv, full)
        assert code == 74
        self.assert_output_error(err, "No space left on device")

    def test_partly_written_file_is_removed(self, tmp_path, monkeypatch,
                                            capsys):
        # the disk fills up halfway through a write
        class FillingFile(io.StringIO):
            def write(self, text):
                with open(out, "a") as fh:
                    fh.write(text[:len(text) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        out = tmp_path / "x.json"
        out.write_text("an earlier output")
        monkeypatch.setattr(cli, "open", lambda path, mode: FillingFile(),
                            raising=False)
        assert main(["build", "toric-code", "-o", str(out)]) == 74
        self.assert_output_error(capsys.readouterr().err,
                                 "No space left on device")
        assert not out.exists()


_STRING_CHARS = st.characters(blacklist_categories=("Cs",)) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u00e9", "\u2028",
     "\U0001f600"])
_JSON_STRINGS = st.text(_STRING_CHARS, max_size=8)
_JSON_SCALARS = (
    st.none() | st.booleans() | _JSON_STRINGS
    | st.integers() | st.integers(2 ** 64, 2 ** 200)
    | st.integers(-2 ** 200, -2 ** 64)
    | st.floats() | st.sampled_from([-0.0, 1e300, math.nan, math.inf,
                                     -math.inf]))
_JSON_PAYLOADS = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.lists(st.integers() | st.booleans(), max_size=5)
                   | st.dictionaries(_JSON_STRINGS, inner, max_size=5)),
    max_leaves=30)


def written(payload):
    buf = io.StringIO()
    cli._write_json(payload, buf)
    return buf.getvalue()


class TestJsonWriter:
    """``cli._write_json`` writes exactly the text of
    ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline."""

    @settings(max_examples=200, deadline=None)
    @given(_JSON_PAYLOADS)
    def test_matches_json_dumps(self, payload):
        assert written(payload).encode() == \
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    @settings(max_examples=200, deadline=None)
    @given(_JSON_PAYLOADS, st.lists(st.integers(0, 3), min_size=2, max_size=6))
    def test_object_written_at_several_places_and_indents(self, shared, depths):
        # one dict or list object (or any payload) placed at several depths,
        # under lists and dicts, as theory tables share their value objects
        def wrap(value, depth):
            for level in range(depth):
                value = [value, 1] if level % 2 else {"k": value, "a": None}
            return value

        payload = {"items": [wrap(shared, d) for d in depths],
                   "first": shared, "nested": {"again": [shared, shared]}}
        assert written(payload).encode() == \
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize("kind", [dict, list])
    def test_nesting_that_json_reads(self, kind):
        # a theory's metadata passes into the output as read: a nesting
        # json.loads takes (800 deep here) is written, as json.dumps writes it
        payload = 1
        for _ in range(800):
            payload = {"k": payload, "a": 1} if kind is dict else [payload, 1]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert json.loads(text) == payload
        assert written(payload) == text

    @settings(max_examples=100, deadline=None)
    @given(_JSON_PAYLOADS,
           st.none() | st.booleans() | st.integers() | st.floats()
           | st.tuples(st.integers()))
    def test_key_that_is_not_a_string_raises(self, payload, key):
        with pytest.raises(TypeError):
            written([payload, {key: payload}])

    @pytest.mark.parametrize("value", [
        object(), {1, 2}, b"bytes", 1j, range(3), np.int64(3)],
        ids=["object", "set", "bytes", "complex", "range", "numpy-int"])
    def test_unsupported_type_raises(self, value):
        with pytest.raises(TypeError):
            written({"a": [1, value]})

    def test_writes_in_bounded_chunks(self):
        payload = [{"charges": [i, i + 1], "value": {"re": 0.5, "im": -0.5}}
                   for i in range(20000)]
        sizes = []

        class Recorder(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        stream = Recorder()
        cli._write_json(payload, stream)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert stream.getvalue() == text
        assert len(sizes) > 10 and max(sizes) < len(text) // 10


class TestParser:
    """A call builds only its command's subparser; its help and usage
    errors are those of the parser with every subparser."""

    COMMAND_ARGVS = [[name] for name in cli.COMMANDS if name != "build"] + [
        ["build"]] + [["build", kind] for kind in
                      ["spt", "trivial-ext", *cli.BUILDERS]]

    @staticmethod
    def full_help(argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args(argv)
        assert info.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=" ".join)
    def test_help_matches_full_parser(self, argv, capsys):
        expected = self.full_help([*argv, "-h"], capsys)
        with pytest.raises(SystemExit) as info:
            main([*argv, "-h"])
        assert info.value.code == 0
        assert capsys.readouterr().out == expected
        assert expected.startswith(f"usage: gxbtc {' '.join(argv)} ")

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["-h"])
        out = capsys.readouterr().out
        assert all(name in out for name in cli.COMMANDS)

    @pytest.mark.parametrize("argv, message", [
        (["compose", "t.json"],
         "the following arguments are required: --t1, --t2"),
        (["check", "x.json", "--nope"], "unrecognized arguments: --nope"),
        (["build", "toric-code", "--root-order", "5"],
         "unrecognized arguments: --root-order 5"),
        (["torsor", "th.json", "--t", "t.json", "--x", "a", "--solve-x"],
         "argument --solve-x: not allowed with argument --x"),
        (["cohomology", "--group", "Z2", "--coeff", "u1", "--degree", "x"],
         "argument --degree: invalid int value: 'x'"),
        (["build"], "the following arguments are required: kind"),
        (["frobnicate"],
         "argument command: invalid choice: 'frobnicate' (choose from "
         "'check', 'torsor', 'obstruction', 'compose', 'equiv', "
         "'cohomology', 'build', 'enumerate-extensions')"),
        ([], "the following arguments are required: command"),
    ], ids=["missing-argument", "unknown-option", "other-builder-option",
            "exclusive-options", "bad-value", "missing-kind",
            "unknown-command", "empty"])
    def test_usage_errors_unchanged(self, argv, message, capsys):
        with pytest.raises(cli._ArgumentError) as info:
            cli.build_parser().parse_args(argv)
        assert str(info.value) == message
        assert main(argv) == 64
        assert capsys.readouterr().err == f"usage error: {message}\n"
