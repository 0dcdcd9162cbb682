import cmath
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gxbtc import category as cat
from gxbtc import constructions as cons
from gxbtc.errors import InadmissibleTuple, InvalidInput, NotAbelianMonodromy
from gxbtc.groups import FiniteGroup

import strategies
from oracles import dense_fusion_violations

GOLDEN = (1.0 + 5.0 ** 0.5) / 2.0


class TestStructure:
    def test_toric_charges(self, toric):
        assert toric.num_charges == 4
        assert toric.vacuum == 0
        assert toric.dual(1) == 1  # every toric charge is self-dual
        assert toric.fusion_outcomes(1, 2) == (3,)

    def test_f_lookup_errors_off_support(self, toric):
        with pytest.raises(InadmissibleTuple):
            toric.f_symbol(1, 1, 1, 1, 1, 1)  # e x e = 1, so d must be 1

    def test_translate(self, toric):
        assert toric.translate(1, 2) == 3
        assert toric.fuse_abelian(1, 2, 3) == 0

    def test_fibonacci_translate_not_unique(self, fib):
        with pytest.raises(InadmissibleTuple):
            fib.translate(1, 1)


class TestValidate:
    def test_fixtures_valid(self, toric, semion_theory, double_semion_theory,
                            z4_theory, fib):
        for theory in [toric, semion_theory, double_semion_theory, z4_theory, fib]:
            assert cat.validate(theory) == []

    def test_extension_valid(self, toric_z2):
        assert cat.validate(toric_z2) == []

    def test_broken_associativity_reported(self, toric):
        triples = [t for t in toric.fusion_triples() if t != (1, 2, 3)]
        broken = cat.GxTheory(
            toric.group, toric.grades, toric.vacuum, triples,
            toric.f_entries(), toric.r_entries(), toric.u_entries(),
            toric.eta_entries(), toric.action)
        msgs = cat.validate(broken)
        assert any("associative" in m for m in msgs)

    def test_action_rules_in_order(self, toric_z2):
        # the identity swaps e and m, and the generator repeats a charge
        action = {0: (0, 2, 1, 3, 4, 6, 5, 7), 1: (0, 1, 2, 3, 4, 5, 6, 6)}
        assert list(cat.action_violations(
            toric_z2.group, toric_z2.grades, toric_z2.fusion_triples(),
            action)) == [
            "identity group element does not act trivially",
            "action is not a homomorphism at (0,0)",
            "action of 1 is not a permutation",
        ]

    def test_tables_are_read_only(self, toric_z2):
        for table in (toric_z2.f_entries(), toric_z2.r_entries(),
                      toric_z2.u_entries(), toric_z2.eta_entries()):
            key = next(iter(table))
            with pytest.raises(TypeError):
                table[key] = 1j
        assert toric_z2.f_entries() is toric_z2.f_entries()

    def test_broken_extension_notes_pinned(self, toric_z2):
        # 4 x 5 rerouted to the wrong channel, one F entry scaled off U(1)
        triples = [(4, 5, 2) if t == (4, 5, 1) else t
                   for t in toric_z2.fusion_triples()]
        f = dict(toric_z2.f_entries())
        f[(0, 5, 0, 5, 5, 5)] *= 1.01
        broken = toric_z2.replace(fusion=triples, f=f)
        expected = [f"fusion not associative at ({a},{b},{c};{d})"
                    for a, b, c, d in dense_fusion_violations(8, triples)]
        assert len(expected) == 52
        expected += [
            "F block (0, 5, 0, 5) is not unitary",
            "missing F entry at (0, 4, 5, 2, 4, 2)",
            "missing F entry at (4, 0, 5, 2, 4, 5)",
            "missing F entry at (4, 5, 0, 2, 2, 5)",
            "missing R entry at (4,5,2)",
            "missing U entry at (0,4,5,2)",
            "missing U entry at (1,4,5,2)",
        ]
        assert cat.validate(broken) == expected

    @pytest.mark.parametrize("value", [
        1.0, cmath.exp(0.3j), math.sqrt(1 + 0.99e-5), math.sqrt(1 + 1.01e-5),
        math.sqrt(1 - 1.01e-5), 1.001j, complex("nan"), complex("inf")])
    def test_scalar_unitarity_matches_allclose(self, toric, value):
        key = (1, 2, 1, 0, 3, 3)
        f = dict(toric.f_entries())
        f[key] = value
        flagged = "F block (1, 2, 1, 0) is not unitary" in cat.validate(
            toric.replace(f=f))
        mat = np.array([[value]])
        with np.errstate(invalid="ignore"):
            unitary = np.allclose(mat @ mat.conj().T, np.eye(1), atol=1e-9)
        assert flagged == (not unitary)

    def test_spt_fixture_valid(self):
        from gxbtc.groups import Cochain, U1Module

        z2 = FiniteGroup.cyclic(2)
        alpha = Cochain(z2, 3, U1Module(2), {(1, 1, 1): complex(-1.0)})
        theory = cons.build_spt(z2, alpha)
        assert cat.validate(theory) == []


@st.composite
def fusion_sets(draw):
    """Fusion triples of a random abelian group of order at most 6, under a
    random labelling, possibly with one triple dropped or one added."""
    factors = draw(st.sampled_from(
        [(1,), (2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3)]))
    elements = list(itertools.product(*[range(m) for m in factors]))
    n = len(elements)
    label = dict(zip(elements, draw(st.permutations(range(n)))))
    triples = sorted(
        (label[x], label[y],
         label[tuple((p + q) % m for p, q, m in zip(x, y, factors))])
        for x in elements for y in elements)
    change = draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop":
        triples.pop(draw(st.integers(0, len(triples) - 1)))
    elif change == "add":
        extra = draw(st.tuples(*[st.integers(0, n - 1)] * 3))
        if extra not in triples:
            triples.append(extra)
    return n, triples


class TestFusionViolations:
    @settings(max_examples=80, deadline=None)
    @given(fusion_sets())
    def test_matches_dense_definition(self, case):
        n, triples = case
        outcomes = {}
        for a, b, c in triples:
            outcomes.setdefault((a, b), []).append(c)
        assert list(cat.fusion_violations(n, outcomes)) == \
            dense_fusion_violations(n, triples)

    def test_out_of_range_outcomes_ignored(self):
        # the dense definition only sums over charges 0..n-1
        outcomes = {(0, 0): [0], (0, 1): [1], (1, 0): [1, -1], (1, 1): [0, 5]}
        triples = [(a, b, c) for (a, b), cs in outcomes.items() for c in cs]
        assert list(cat.fusion_violations(2, outcomes)) == \
            dense_fusion_violations(2, triples)


class TestQuantumDimensions:
    def test_vacuum_dimension(self, toric):
        dims, _ = cat.quantum_dimensions(toric)
        assert abs(dims[0] - 1.0) < 1e-9

    def test_toric_dimensions(self, toric):
        dims, total = cat.quantum_dimensions(toric)
        assert all(abs(d - 1.0) < 1e-9 for d in dims.values())
        assert abs(total - 2.0) < 1e-9

    def test_fibonacci_flags_nonabelian(self, fib):
        dims, total = cat.quantum_dimensions(fib)
        assert abs(dims[1] - GOLDEN) < 1e-9
        assert not fib.is_abelian_charge(1)
        assert abs(total - math.sqrt(1 + GOLDEN ** 2)) < 1e-9

    def test_dimension_sum_rule(self, toric_z2, fib):
        for theory in [toric_z2, fib]:
            dims, _ = cat.quantum_dimensions(theory)
            for a in theory.charges():
                for b in theory.charges():
                    total = sum(dims[c] for c in theory.fusion_outcomes(a, b))
                    assert abs(total - dims[a] * dims[b]) < 1e-9

    def test_dual_dimension_equal(self, fib, toric_z2):
        for theory in [fib, toric_z2]:
            dims, _ = cat.quantum_dimensions(theory)
            for a in theory.charges():
                assert abs(dims[a] - dims[theory.dual(a)]) < 1e-9


class TestAbelianSubgroup:
    def test_toric_is_z2xz2(self, toric):
        module = cat.abelian_subgroup(toric)
        assert module.factors == (2, 2)
        assert set(module.charges) == {0, 1, 2, 3}

    def test_semion_is_z2(self, semion_theory):
        module = cat.abelian_subgroup(semion_theory)
        assert module.factors == (2,)

    def test_z4_is_z4(self, z4_theory):
        module = cat.abelian_subgroup(z4_theory)
        assert module.factors == (4,)

    def test_spt_sector_trivial(self):
        from gxbtc.groups import Cochain, U1Module

        z2 = FiniteGroup.cyclic(2)
        theory = cons.build_spt(z2, Cochain.identity(z2, 3, U1Module(2)))
        module = cat.abelian_subgroup(theory)
        assert module.factors == ()
        assert module.charges == (theory.vacuum,)

    def test_fibonacci_excluded(self, fib):
        module = cat.abelian_subgroup(fib)
        assert module.charges == (0,)

    def test_action_restricts_to_automorphism(self, toric_z2):
        module = cat.abelian_subgroup(toric_z2)
        for g in toric_z2.group.elements():
            for a in module.charges:
                for b in module.charges:
                    fuse = toric_z2.translate
                    lhs = module.act(g, fuse(a, b))
                    rhs = fuse(module.act(g, a), module.act(g, b))
                    assert lhs == rhs

    def test_extension_preserves_abelian_sector(self, toric, toric_z2):
        assert cat.abelian_subgroup(toric).factors == cat.abelian_subgroup(toric_z2).factors

    @pytest.mark.parametrize("identity_graded", [(0, 1, 2), (0, 1, 2, 4)])
    def test_charges_not_closed_under_fusion_rejected(self, identity_graded):
        # Z2^3 fusion by XOR; 1 x 2 = 3 is graded away in both cases.  With
        # three charges no generator divides the order but the vacuum; with
        # four, {1, 2} spans {0, 1, 2, 3}, which has the right size but
        # leaves the set.
        z2 = FiniteGroup.cyclic(2)
        grades = [0 if a in identity_graded else 1 for a in range(8)]
        fusion = [(a, b, a ^ b) for a in range(8) for b in range(8)]
        theory = cat.GxTheory(z2, grades, 0, fusion, {}, {}, {}, {},
                              {g: tuple(range(8)) for g in z2.elements()})
        with pytest.raises(InvalidInput, match="do not form a group"):
            cat.abelian_subgroup(theory)

    def test_powers_missing_the_vacuum_rejected(self):
        # Z4 fusion except 1 x 1 = 2 and 2 x 1 = 1: the powers of charge 1
        # cycle 1, 2, 1, ... and never reach the vacuum
        fuse = {(a, b): (a + b) % 4 for a in range(4) for b in range(4)}
        fuse.update({(1, 1): 2, (2, 1): 1, (1, 2): 1})
        theory = cat.GxTheory(FiniteGroup.trivial(), [0] * 4, 0,
                              [(a, b, c) for (a, b), c in fuse.items()],
                              {}, {}, {}, {}, {0: (0, 1, 2, 3)})
        with pytest.raises(InvalidInput, match="do not form a group"):
            cat.abelian_subgroup(theory)


class TestMonodromy:
    def test_vacuum_monodromy(self, toric):
        for b in toric.charges():
            assert abs(cat.monodromy(toric, 0, b) - 1.0) < 1e-12

    def test_toric_em_monodromy(self, toric):
        assert abs(cat.monodromy(toric, 1, 2) + 1.0) < 1e-12

    def test_semion_self_monodromy(self, semion_theory):
        assert abs(cat.monodromy(semion_theory, 1, 1) + 1.0) < 1e-12

    def test_fibonacci_tau_tau_rejected(self, fib):
        with pytest.raises(NotAbelianMonodromy):
            cat.monodromy(fib, 1, 1)


class TestJsonRoundtrip:
    def test_roundtrip_value_identical(self, toric_z2):
        blob = cat.theory_to_json(toric_z2)
        back = cat.theory_from_json(blob)
        assert cat.tables_distance(toric_z2, back) == 0.0
        assert back.action == toric_z2.action
        blob2 = cat.theory_to_json(back)
        assert blob == blob2

    def test_each_value_written_from_its_own_parts(self, toric):
        # 0.3+0j and 0.3-0j are equal and hash alike, and neither snaps;
        # the snap is shared, but each writes its own imaginary part
        keys = sorted(toric.r_entries())[:3]
        r = dict(toric.r_entries())
        r[keys[0]], r[keys[1]], r[keys[2]] = \
            complex(0.3, 0.0), complex(0.3, -0.0), complex(-1.0, -0.0)
        blob = cat.theory_to_json(toric.replace(r=r))
        values = {tuple(e["charges"]): e["value"] for e in blob["R"]}
        assert [repr(values[k]) for k in keys] == [
            "{'re': 0.3, 'im': 0.0}", "{'re': 0.3, 'im': -0.0}",
            "{'turns': '1/2'}"]

    def test_one_value_object_per_written_value(self):
        # toric x S3 repeats a few phases thousands of times; an entry's
        # value is shared, its key lists are its own, and values equal up
        # to the sign of a zero part are two objects with their own parts
        theory = strategies.toric_s3_twist()[0]
        keys = sorted(theory.r_entries())[:2]
        r = dict(theory.r_entries())
        r[keys[0]], r[keys[1]] = complex(0.3, 0.0), complex(0.3, -0.0)
        blob = cat.theory_to_json(theory.replace(r=r))
        entries = [e for table in ("F", "R", "U", "eta") for e in blob[table]]
        values = [e["value"] for e in entries]
        written = {json.dumps(v, sort_keys=True) for v in values}
        assert len(entries) > 10_000
        assert len({id(v) for v in values}) == len(written) == 4
        assert "{\"im\": -0.0, \"re\": 0.3}" in written
        lists = [e.get("charges", e.get("pair")) for e in entries]
        assert len({id(key) for key in lists}) == len(entries)

    def test_bad_dual_rejected(self, toric):
        blob = cat.theory_to_json(toric)
        blob["dual"] = [0, 2, 1, 3]
        with pytest.raises(InvalidInput):
            cat.theory_from_json(blob)


def restrict_to_identity_sector(theory):
    """Standalone theory on the identity-graded charges (test helper)."""
    from gxbtc.groups import FiniteGroup

    ident = theory.group.identity
    sector = [a for a in theory.charges() if theory.grade(a) == ident]
    index = {a: i for i, a in enumerate(sector)}
    keep = set(sector)
    fusion = [(index[a], index[b], index[c]) for a, b, c in theory.fusion_triples()
              if a in keep and b in keep and c in keep]
    f = {(index[a], index[b], index[c], index[d], index[e], index[ff]): v
         for (a, b, c, d, e, ff), v in theory.f_entries().items()
         if {a, b, c, d, e, ff} <= keep}
    r = {(index[a], index[b], index[c]): v
         for (a, b, c), v in theory.r_entries().items()
         if {a, b, c} <= keep}
    u = {(0, index[a], index[b], index[c]): v
         for (k, a, b, c), v in theory.u_entries().items()
         if k == ident and {a, b, c} <= keep}
    eta = {(index[x], 0, 0): v for (x, g, h), v in theory.eta_entries().items()
           if x in keep and g == ident and h == ident}
    return cat.GxTheory(FiniteGroup.trivial(), [0] * len(sector),
                        index[theory.vacuum], fusion, f, r, u, eta,
                        {0: tuple(range(len(sector)))})


class TestIdentitySector:
    def test_identity_sector_is_valid_standalone(self, toric_z2, semion_z2):
        from gxbtc import consistency as con

        for theory in [toric_z2, semion_z2]:
            sector = restrict_to_identity_sector(theory)
            assert cat.validate(sector) == []
            assert con.check_pentagon(sector).passed(1e-9)
            assert con.check_hexagon(sector).passed(1e-9)
