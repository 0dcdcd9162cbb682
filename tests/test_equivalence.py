import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gxbtc import category as cat
from gxbtc import consistency as con
from gxbtc import constructions as cons
from gxbtc import equivalence as eq
from gxbtc import torsor
from gxbtc.errors import BudgetExceeded, GradeViolation, NotA1Cocycle
from gxbtc.groups import (
    Cochain,
    FiniteGroup,
    U1Module,
    cohomologous,
    is_cocycle,
    validate_cocycle,
)

import oracles

Z2 = FiniteGroup.cyclic(2)
Z2XZ2 = FiniteGroup.from_cyclic_factors([2, 2])
TOL = 1e-9
SEARCH_THEORIES = {
    "toric x Z2": cons.trivial_extension(cons.toric_code(), Z2),
    "semion x Z2xZ2": cons.trivial_extension(cons.semion(), Z2XZ2),
}


def one_cochain(theory, value):
    module = cat.abelian_subgroup(theory)
    if value == theory.vacuum:
        return Cochain.identity(theory.group, 1, module)
    return Cochain(theory.group, 1, module, {(1,): value})


def random_gauge(theory, rng):
    mod = U1Module(8)
    vertex = {}
    for a, b, c in theory.fusion_triples():
        if a == theory.vacuum or b == theory.vacuum:
            continue
        vertex[(a, b, c)] = mod.value(rng.randrange(8))
    sheet = {}
    for a in theory.charges():
        if a == theory.vacuum:
            continue
        for g in theory.group.nonidentity():
            sheet[(a, g)] = mod.value(rng.randrange(8))
    return eq.GaugeTransform(vertex, sheet)


class TestApplyGauge:
    def test_identity_gauge_is_noop(self, toric_z2):
        out = eq.apply_gauge(toric_z2, eq.GaugeTransform())
        assert cat.tables_distance(out, toric_z2) == 0.0

    def test_gauge_preserves_all_verdicts(self, toric_z2):
        rng = random.Random(7)
        for _ in range(3):
            gauged = eq.apply_gauge(toric_z2, random_gauge(toric_z2, rng))
            assert con.check_pentagon(gauged).passed(TOL)
            for rep in con.check_heptagons(gauged):
                assert rep.passed(TOL)
            assert con.check_eta_associativity(gauged).passed(TOL)
            assert con.check_kappa_sliding(gauged).passed(TOL)

    def test_gauge_preserves_failing_verdicts(self, toric_z2):
        f = dict(toric_z2.f_entries())
        key = next(k for k in f if all(toric_z2.grade(c) == 1 for c in k[:3]))
        f[key] = f[key] * complex(-1.0)
        broken = toric_z2.replace(f=f)
        assert not con.check_pentagon(broken).passed(TOL)
        gauged = eq.apply_gauge(broken, random_gauge(broken, random.Random(3)))
        assert not con.check_pentagon(gauged).passed(TOL)

    def test_spt_coboundary_gauge_collapse(self):
        # gluing a coboundary cocycle is undone by the epsilon gauge
        eps = Cochain(Z2, 2, U1Module(8), {(1, 1): 1j})
        alpha = eps.coboundary()
        spt_triv = cons.build_spt(Z2, Cochain.identity(Z2, 3, U1Module(8)))
        spt_alpha = cons.build_spt(Z2, alpha)
        grp = Z2
        vertex = {}
        for a, b, c in spt_alpha.fusion_triples():
            vertex[(a, b, c)] = eps(spt_alpha.grade(a), spt_alpha.grade(b))
        sheet = {}
        for x in spt_alpha.charges():
            g = spt_alpha.grade(x)
            for h in grp.nonidentity():
                hgh = grp.prod(grp.inverse(h), g, h)
                sheet[(x, h)] = eps(g, h) / eps(h, hgh)
        gauge = eq.GaugeTransform(vertex, sheet)
        out = eq.apply_gauge(spt_alpha, gauge)
        assert cat.tables_distance(out, spt_triv) < TOL


GOLDEN_GAUGE_THEORIES = {
    "toric x Z2": SEARCH_THEORIES["toric x Z2"],
    "fibonacci x Z2": cons.trivial_extension(cons.fibonacci(), Z2),
    "semion x Z2xZ2": SEARCH_THEORIES["semion x Z2xZ2"],
}


def seeded_gauge(theory, seed):
    """mu_8 vertex and sheet phases; the vacuum-line vertices all carry one
    drawn reference phase, which is 1 only by chance."""
    rng = random.Random(seed)
    mod = U1Module(8)
    vac = theory.vacuum
    ref = mod.value(rng.randrange(1, 8))
    vertex = {(a, b, c): ref if vac in (a, b) else mod.value(rng.randrange(8))
              for a, b, c in sorted(theory.fusion_triples())}
    sheet = {(a, g): mod.value(rng.randrange(8))
             for a in theory.charges() if a != vac
             for g in theory.group.nonidentity()}
    return eq.GaugeTransform(vertex, sheet)


class TestGaugeGolden:
    """SHA-256 of ``repr`` of the gauged tables and of the solved witness.

    Both follow the order of the theory's entries and of the gauge
    variables, and each gauged value is an ordered product of floats, so
    a change of multiplication order, of table order or of the solver's
    variable order shows up here.
    """

    @pytest.mark.parametrize("name, digest", [
        ("toric x Z2",
         "506e2ea60edc56c690048afc761fc7ccbbf9a2c8eb1d04c6af36c9e0575b2746"),
        ("fibonacci x Z2",
         "f7c8166fd8199dbb7a5418e4c932917723b2f8ad5b52bcef246a34afa264224d"),
        ("semion x Z2xZ2",
         "2adf35f456ed2d494225245cb162cecfde1b08fb8fe9927d144f2e2542b91e94"),
    ], ids=["toric x Z2", "fibonacci x Z2", "semion x Z2xZ2"])
    def test_gauged_tables_and_witness(self, name, digest):
        theory = GOLDEN_GAUGE_THEORIES[name]
        parts = []
        for seed in range(3):
            gauged = eq.apply_gauge(theory, seeded_gauge(theory, seed))
            witness = eq.solve_gauge_matching(theory, gauged)
            assert witness is not None
            parts.append(repr((gauged.f_entries(), gauged.r_entries(),
                               gauged.u_entries(), gauged.eta_entries(),
                               witness)))
        assert hashlib.sha256("".join(parts).encode()).hexdigest() == digest


class TestRelabel:
    def test_identity_permutation(self, toric_z2):
        out = eq.relabel(toric_z2, eq.Relabeling(tuple(toric_z2.charges())))
        assert cat.tables_distance(out, toric_z2) == 0.0

    def test_toric_em_swap_is_valid(self, toric):
        swap = eq.Relabeling((0, 2, 1, 3))
        out = eq.relabel(toric, swap)
        assert cat.validate(out) == []
        assert con.check_pentagon(out).passed(TOL)
        assert con.check_hexagon(out).passed(TOL)

    def test_roundtrip(self, toric_z2):
        perm = eq.Relabeling((0, 3, 2, 1, 4, 7, 6, 5))
        out = eq.relabel(eq.relabel(toric_z2, perm), perm.inverse())
        assert cat.tables_distance(out, toric_z2) == 0.0

    def test_fixes(self, toric_z2):
        check = eq.structure_check(toric_z2)
        assert check.carries(eq.Relabeling(tuple(range(8))))
        # e <-> m in both grades is a symmetry of the toric code
        assert check.carries(eq.Relabeling((0, 2, 1, 3, 4, 6, 5, 7)))
        # moves the vacuum
        assert not check.carries(eq.Relabeling((1, 0, 2, 3, 4, 5, 6, 7)))
        # e x vac_1 = e_1 becomes e x e_1 = e_1, not a fusion triple
        assert not check.carries(eq.Relabeling((0, 1, 2, 3, 5, 4, 6, 7)))

    def test_grade_violation(self, toric_z2):
        with pytest.raises(GradeViolation):
            eq.Relabeling((4, 1, 2, 3, 0, 5, 6, 7)).validate(toric_z2)


class TestRelabelBy1Cochain:
    def test_trivial(self, toric_z2):
        z = one_cochain(toric_z2, 0)
        assert cat.tables_distance(eq.relabel_by_1cochain(toric_z2, z),
                                   toric_z2) == 0.0

    def test_fusion_matches_coboundary_twist(self, toric_z2):
        for value in (1, 2, 3):
            z = one_cochain(toric_z2, value)
            relabeled = eq.relabel_by_1cochain(toric_z2, z)
            twisted = torsor.Twist(toric_z2, z.coboundary()).fusion[0]
            assert set(relabeled.fusion_triples()) == set(twisted)

    def test_identity_sector_unchanged(self, toric_z2):
        z = one_cochain(toric_z2, 3)
        perm = eq.relabeling_from_1cochain(toric_z2, z)
        for a in range(4):
            assert perm(a) == a


class TestCoboundaryEquivalence:
    def test_trivial_cochain(self, toric_z2):
        coeffs, gauge = oracles.coboundary_equivalence(
            toric_z2, one_cochain(toric_z2, 0))
        assert not any(coeffs.vec)
        assert oracles.gauge_is_trivial(gauge)

    @pytest.mark.parametrize("value", [1, 2, 3])
    def test_toric_collapse(self, toric_z2, value):
        z = one_cochain(toric_z2, value)
        coeffs, gauge = oracles.coboundary_equivalence(toric_z2, z)
        twisted = torsor.apply_torsor(toric_z2, z.coboundary(), coeffs)
        relabeled = eq.relabel_by_1cochain(toric_z2, z)
        assert cat.tables_distance(eq.apply_gauge(relabeled, gauge),
                                   twisted) < TOL

    @pytest.mark.parametrize("value", [1, 2, 3])
    def test_coefficients_invert_the_obstruction(self, toric_z2, value):
        z = one_cochain(toric_z2, value)
        coeffs = oracles.boundary_coefficients(toric_z2, z)
        orr = torsor.relative_obstruction(toric_z2, z.coboundary())
        product = coeffs.coboundary().combine(orr)
        assert not any(product.vec)


class TestCocycleRelabelClass:
    def test_trivial(self, toric_z2):
        z = one_cochain(toric_z2, 0)
        out = validate_cocycle(eq.relabel_cochain(toric_z2, z), degree=3)
        assert not any(out.vec)

    def test_output_is_cocycle(self, toric_z2):
        for value in (1, 2, 3):
            z = one_cochain(toric_z2, value)
            assert is_cocycle(z), "toric Z2 1-cochains are closed"
            out = validate_cocycle(eq.relabel_cochain(toric_z2, z), degree=3)
            assert is_cocycle(out)

    def test_trivial_action_reduction(self, toric_z2):
        # with unit U and eta the class is a pure F-quotient
        z = one_cochain(toric_z2, 3)
        out = validate_cocycle(eq.relabel_cochain(toric_z2, z), degree=3)
        grp = toric_z2.group
        tr = toric_z2.translate
        dual = toric_z2.dual
        for g, h, k in itertools.product(grp.elements(), repeat=3):
            zk_zhk = tr(z(k), dual(z(grp.op(h, k))))
            zhk_zghk = tr(z(grp.op(h, k)), dual(z(grp.prod(g, h, k))))
            e = tr(zhk_zghk, zk_zhk)
            f = tr(zk_zhk, dual(z(k)))
            d = tr(e, dual(z(k)))
            expected = 1.0 / toric_z2.f_symbol(
                zhk_zghk, zk_zhk, dual(z(k)), d, e, f)
            assert abs(out(g, h, k) - expected) < TOL

    def test_non_cocycle_rejected(self):
        z22 = FiniteGroup.from_cyclic_factors([2, 2])
        ext = cons.trivial_extension(cons.toric_code(), z22)
        module = cat.abelian_subgroup(ext)
        z = Cochain(z22, 1, module, {(1,): 1, (2,): 0, (3,): 3})
        with pytest.raises(NotA1Cocycle):
            validate_cocycle(eq.relabel_cochain(ext, z), degree=3)


class TestTheoriesEquivalent:
    def test_self_equivalence(self, toric_z2):
        witness = eq.theories_equivalent(toric_z2, toric_z2)
        assert witness is not None
        relabeling, gauge = witness
        assert relabeling.perm == tuple(toric_z2.charges())
        assert oracles.gauge_is_trivial(gauge)

    def test_gauged_theory_found(self, toric_z2):
        gauged = eq.apply_gauge(toric_z2, random_gauge(toric_z2, random.Random(11)))
        witness = eq.theories_equivalent(toric_z2, gauged)
        assert witness is not None
        relabeling, gauge = witness
        moved = eq.relabel(toric_z2, relabeling)
        assert cat.tables_distance(eq.apply_gauge(moved, gauge), gauged) < 1e-8

    def test_distinct_spt_classes_inequivalent(self):
        trivial = cons.build_spt(Z2, Cochain.identity(Z2, 3, U1Module(8)))
        nontrivial = cons.build_spt(
            Z2, Cochain(Z2, 3, U1Module(8), {(1, 1, 1): complex(-1.0)}))
        assert eq.theories_equivalent(trivial, nontrivial) is None

    def test_em_dual_twists_are_equivalent(self, toric_z2):
        # twisting by e and by m lands on relabel-equivalent theories
        module = cat.abelian_subgroup(toric_z2)
        te = Cochain(Z2, 2, module, {(1, 1): 1})
        tm = Cochain(Z2, 2, module, {(1, 1): 2})
        out_e = torsor.apply_torsor(toric_z2, te)
        out_m = torsor.apply_torsor(toric_z2, tm)
        witness = eq.theories_equivalent(out_e, out_m)
        assert witness is not None


class TestSemionDefectificationCollapse:
    def test_relabel_class_is_nontrivial(self, semion_z2):
        # z(1) = s is closed (s squares to the vacuum) and its coefficient
        # class is the nontrivial one: the two defectification classes of
        # the trivial fractionalization class are the same theory
        module = cat.abelian_subgroup(semion_z2)
        z = Cochain(Z2, 1, module, {(1,): 1})
        assert is_cocycle(z)
        out = validate_cocycle(eq.relabel_cochain(semion_z2, z), degree=3)
        assert abs(out(1, 1, 1) + 1.0) < TOL
        trivial = Cochain.identity(Z2, 3, out.module)
        assert cohomologous(out, trivial) is None

    def test_collapse_witnessed_end_to_end(self, semion_z2):
        alpha = Cochain(Z2, 3, U1Module(8), {(1, 1, 1): complex(-1.0)})
        plain = torsor.apply_torsor(
            semion_z2, oracles.trivial_twist(semion_z2),
            torsor.trivial_coefficients(semion_z2))
        shifted = cons.glue_spt(semion_z2, alpha)
        module = cat.abelian_subgroup(semion_z2)
        z = Cochain(Z2, 1, module, {(1,): 1})
        moved = eq.relabel_by_1cochain(plain, z)
        gauge = eq.solve_gauge_matching(moved, shifted)
        assert gauge is not None

    def test_toric_relabel_classes_all_trivial(self, toric_z2):
        # with unit F on the twist lines nothing collapses on the toric side
        module = cat.abelian_subgroup(toric_z2)
        for value in (1, 2, 3):
            z = Cochain(Z2, 1, module, {(1,): value})
            out = validate_cocycle(eq.relabel_cochain(toric_z2, z), degree=3)
            assert not any(out.vec)


def grade_preserving_relabeling(theory, rng):
    perm = list(theory.charges())
    for g in theory.group.elements():
        block = list(theory.charges_of_grade(g))
        images = block[:]
        rng.shuffle(images)
        for src, dst in zip(block, images):
            perm[src] = dst
    return eq.Relabeling(tuple(perm))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(SEARCH_THEORIES)), st.randoms(use_true_random=False))
def test_pruned_search_matches_filtered_permutations(name, rng):
    # the pruned generator yields exactly the grade-preserving permutations
    # whose relabeled theory has the target's vacuum, fusion and action,
    # in the order of the unpruned search
    theory = SEARCH_THEORIES[name]
    moved = eq.relabel(theory, grade_preserving_relabeling(theory, rng))
    target = eq.apply_gauge(moved, random_gauge(moved, rng))
    pruned = list(eq._structure_preserving_permutations(theory, target))
    assert pruned == list(oracles.structure_matching_relabelings(theory, target))
    assert pruned, "the relabeling that built the target always survives"


class TestSearchBudget:
    """``budget`` bounds the relabelings that pass the structure check."""

    # toric x Z2 with e and f swapped in both grades: the first gauge match
    # is the 13th of 24 structure-preserving relabelings and the 76th
    # grade-preserving one
    SWAP = eq.Relabeling((0, 3, 2, 1, 4, 7, 6, 5))

    def test_witness_needs_its_rank_among_survivors(self, toric_z2):
        target = eq.relabel(toric_z2, self.SWAP)
        survivors = list(oracles.structure_matching_relabelings(toric_z2, target))
        relabeling, _ = eq.theories_equivalent(toric_z2, target)
        rank = survivors.index(relabeling)
        full_rank = list(oracles._grade_preserving_permutations(toric_z2)).index(
            relabeling)
        assert (len(survivors), rank, full_rank) == (24, 12, 75)
        assert eq.theories_equivalent(toric_z2, target, budget=rank + 1)[0] \
            == relabeling
        with pytest.raises(BudgetExceeded, match="examined 12 relabelings"):
            eq.theories_equivalent(toric_z2, target, budget=rank)

    def test_refutation_needs_every_survivor(self, toric_z2):
        alpha = Cochain(Z2, 3, U1Module(8), {(1, 1, 1): complex(-1.0)})
        glued = cons.glue_spt(toric_z2, alpha)
        survivors = list(oracles.structure_matching_relabelings(toric_z2, glued))
        assert len(survivors) == 24
        assert eq.theories_equivalent(toric_z2, glued, budget=24) is None
        with pytest.raises(BudgetExceeded):
            eq.theories_equivalent(toric_z2, glued, budget=23)
