import hashlib
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gxbtc import category as cat
from gxbtc import consistency as con
from gxbtc import constructions as cons
from gxbtc import torsor
from gxbtc.errors import GxError, NotACocycle, SnapFailure
from gxbtc.groups import Cochain, FiniteGroup, U1Module, is_cocycle, turn_phase
from oracles import boundary_coefficients, dense_fusion_violations, trivial_twist

import oracles
import strategies

Z2 = FiniteGroup.cyclic(2)
TOL = 1e-9

# toric extension charge layout: 0..3 identity grade (1, e, m, f), 4..7 defects
E, M, F = 1, 2, 3


def twist(theory, value):
    module = cat.abelian_subgroup(theory)
    if value == theory.vacuum:
        return Cochain.identity(theory.group, 2, module)
    return Cochain(theory.group, 2, module, {(1, 1): value})


def all_twists(theory):
    module = cat.abelian_subgroup(theory)
    return [twist(theory, a) for a in module.charges]


class TestChargeTransfer:
    def test_identity_arguments(self, toric_z2):
        t = twist(toric_z2, E)
        for g in (0, 1):
            assert torsor.charge_transfer(toric_z2, t, g, 0) == toric_z2.vacuum
            assert torsor.charge_transfer(toric_z2, t, 0, g) == toric_z2.vacuum

    def test_abelian_group_form(self, toric_z2):
        # abelian G: transfer pairs the twist with its reversed arguments
        t = twist(toric_z2, E)
        d = toric_z2.dual
        assert torsor.charge_transfer(toric_z2, t, 1, 1) == \
            toric_z2.translate(d(t(1, 1)), t(1, 1))

    def test_toric_transfer_is_vacuum(self, toric_z2):
        t = twist(toric_z2, E)
        assert torsor.charge_transfer(toric_z2, t, 1, 1) == toric_z2.vacuum


class TestTorsoredFusion:
    def test_identity_twist_preserves_fusion(self, toric_z2):
        t = trivial_twist(toric_z2)
        assert torsor.Twist(toric_z2, t).fusion[0] == toric_z2.fusion_triples()

    def test_defect_square_shifts_to_e(self, toric_z2):
        t = twist(toric_z2, E)
        triples = set(torsor.Twist(toric_z2, t).fusion[0])
        # vacuum defect (charge 4) now squares to e instead of the vacuum
        assert (4, 4, E) in triples
        assert (4, 4, 0) not in triples

    def test_non_associative_input_rejected_at_first_tuple(self, toric_z2):
        triples = [(4, 5, 2) if t == (4, 5, 1) else t
                   for t in toric_z2.fusion_triples()]
        broken = toric_z2.replace(fusion=triples)
        first = dense_fusion_violations(broken.num_charges, triples)[0]
        with pytest.raises(NotACocycle, match=r"at \(%d,%d,%d;%d\)" % first):
            torsor.Twist(broken, trivial_twist(broken)).fusion

    def test_identity_sector_unchanged(self, toric_z2):
        t = twist(toric_z2, F)
        triples = set(torsor.Twist(toric_z2, t).fusion[0])
        for a, b, c in toric_z2.fusion_triples():
            if toric_z2.grade(a) == 0 and toric_z2.grade(b) == 0:
                assert (a, b, c) in triples


class TestTorsoredAction:
    def test_identity_twist(self, toric_z2):
        t = trivial_twist(toric_z2)
        assert torsor.torsored_action(torsor.Twist(toric_z2, t)) == toric_z2.action

    def test_identity_sector_fixed(self, toric_z2):
        for t in all_twists(toric_z2):
            action = torsor.torsored_action(torsor.Twist(toric_z2, t))
            for a in range(4):
                assert action[1][a] == toric_z2.act(1, a)

    def test_toric_e_twist_action_unchanged(self, toric_z2):
        action = torsor.torsored_action(torsor.Twist(toric_z2, twist(toric_z2, E)))
        assert action == toric_z2.action


class TestTorsoredTables:
    def test_trivial_input_is_identity_functor(self, toric_z2):
        t = trivial_twist(toric_z2)
        x = torsor.trivial_coefficients(toric_z2)
        out = torsor.apply_torsor(toric_z2, t, x)
        assert cat.tables_distance(out, toric_z2) == 0.0

    def test_identity_grade_tables_exact(self, toric_z2):
        t = twist(toric_z2, E)
        x = torsor.solve_cocycleator(toric_z2, t)
        out = torsor.apply_torsor(toric_z2, t, x)
        for key, val in toric_z2.f_entries().items():
            if all(toric_z2.grade(c) == 0 for c in key[:3]):
                assert out.f_entries()[key] == val
        for key, val in toric_z2.r_entries().items():
            if all(toric_z2.grade(c) == 0 for c in key[:2]):
                assert out.r_entries()[key] == val
        for (k, a, b, c), val in toric_z2.u_entries().items():
            if toric_z2.grade(a) == 0 and toric_z2.grade(b) == 0:
                assert out.u_entries()[(k, a, b, c)] == val

    def test_eta_identity_grade_restriction(self, toric_z2):
        # identity-sector eta picks up exactly the monodromy with the twist
        t = twist(toric_z2, E)
        x = torsor.solve_cocycleator(toric_z2, t)
        out = torsor.apply_torsor(toric_z2, t, x)
        for x0 in range(4):
            for g in (0, 1):
                for h in (0, 1):
                    expected = toric_z2.eta_symbol(x0, g, h) * cat.monodromy(
                        toric_z2, x0, t(g, h))
                    assert out.eta_symbol(x0, g, h) == expected

    def test_toric_m_defect_eta_flips(self, toric_z2):
        t = twist(toric_z2, E)
        out = torsor.apply_torsor(toric_z2, t)
        # monodromy of m with e is -1, so eta_m(1,1) flips sign
        assert abs(out.eta_symbol(M, 1, 1) + toric_z2.eta_symbol(M, 1, 1)) < TOL


class TestRelativeObstruction:
    def test_trivial_twist(self, toric_z2):
        orr = torsor.relative_obstruction(toric_z2, trivial_twist(toric_z2))
        assert orr.is_identity_cochain()

    def test_e_and_m_twists_unobstructed(self, toric_z2):
        for value in (E, M):
            orr = torsor.relative_obstruction(toric_z2, twist(toric_z2, value))
            assert orr.is_identity_cochain()

    def test_f_twist_obstruction_is_fermion_spin(self, toric_z2):
        orr = torsor.relative_obstruction(toric_z2, twist(toric_z2, F))
        assert abs(orr(1, 1, 1, 1) - toric_z2.r_symbol(F, F, 0)) < TOL
        assert abs(orr(1, 1, 1, 1) + 1.0) < TOL

    def test_always_four_cocycle(self, toric_z2, semion_z2, z4_theory):
        z4_ext = cons.trivial_extension(cons.z4_anyons(), Z2)
        for theory in (toric_z2, semion_z2, z4_ext):
            for t in all_twists(theory):
                orr = torsor.relative_obstruction(theory, t)
                assert is_cocycle(orr, 1e-7)

    def test_semion_twist_obstruction_is_spin(self, semion_z2):
        orr = torsor.relative_obstruction(semion_z2, twist(semion_z2, 1))
        assert abs(orr(1, 1, 1, 1) - 1j) < TOL


class TestSolveCocycleator:
    def test_trivial_obstruction_gives_all_ones(self, toric_z2):
        x = torsor.solve_cocycleator(toric_z2, trivial_twist(toric_z2))
        assert x is not None and x.is_identity_cochain()

    def test_fermion_twist_solution(self, toric_z2):
        x = torsor.solve_cocycleator(toric_z2, twist(toric_z2, F))
        assert x is not None
        # d(x) = inverse obstruction forces x(1,1,1)^2 = -1
        assert abs(x(1, 1, 1) ** 2 + 1.0) < TOL

    def test_deterministic(self, toric_z2):
        a = torsor.solve_cocycleator(toric_z2, twist(toric_z2, F))
        b = torsor.solve_cocycleator(toric_z2, twist(toric_z2, F))
        assert a.equal(b, 0.0)

    def test_nontrivial_class_returns_absent(self):
        # inject a synthetic nontrivial 4-cocycle over Z2 x Z2
        from gxbtc import groups as gr

        z22 = FiniteGroup.from_cyclic_factors([2, 2])
        h4 = gr.cohomology(z22, 4, U1Module(8))
        assert h4.orders, "need a nontrivial class for this control"
        synthetic = h4.representatives[0]
        assert torsor.solve_coefficients_for(synthetic) is None

    def test_non_cocycle_twist_rejected(self, toric_z2):
        module = cat.abelian_subgroup(toric_z2)
        bad = Cochain(toric_z2.group, 2, module, {(1, 1): E})
        # turn it into a non-cocycle by breaking one entry of a Z2xZ2 twist
        z22 = FiniteGroup.from_cyclic_factors([2, 2])
        ext = cons.trivial_extension(cons.toric_code(), z22)
        mod = cat.abelian_subgroup(ext)
        entries = {(g, h): E for g in (1, 2, 3) for h in (1, 2, 3)}
        entries[(1, 1)] = M
        bad = Cochain(z22, 2, mod, entries)
        with pytest.raises(NotACocycle):
            torsor.validate_two_cocycle(ext, bad)


class TestEndToEnd:
    @pytest.mark.parametrize("value", [0, E, M, F])
    def test_toric_twists_fully_consistent(self, toric_z2, value):
        t = twist(toric_z2, value)
        out = torsor.apply_torsor(toric_z2, t)
        assert con.check_pentagon(out).passed(TOL)
        assert con.check_hexagon(out).passed(TOL)
        for rep in con.check_heptagons(out):
            assert rep.passed(TOL)
        assert con.check_eta_associativity(out).passed(TOL)
        assert con.check_kappa_sliding(out).passed(TOL)
        assert cat.validate(out) == []

    def test_semion_twist_fully_consistent(self, semion_z2):
        out = torsor.apply_torsor(semion_z2, twist(semion_z2, 1))
        assert con.check_pentagon(out).passed(TOL)
        for rep in con.check_heptagons(out):
            assert rep.passed(TOL)

    def test_unit_coefficients_pass_heptagons_but_not_pentagon(self, toric_z2):
        # any coefficient choice satisfies the braiding coherence; only the
        # four-defect pentagon cares about the obstruction
        t = twist(toric_z2, F)
        ones = torsor.trivial_coefficients(toric_z2)
        out = torsor.apply_torsor(toric_z2, t, ones)
        for rep in con.check_heptagons(out):
            assert rep.passed(TOL)
        assert con.check_pentagon(out, max_nontrivial_defects=3).passed(TOL)
        full = con.check_pentagon(out)
        assert not full.passed(TOL)
        # the defect phase equals the relative obstruction
        measured = con.defectification_obstruction(out)
        orr = torsor.relative_obstruction(toric_z2, t)
        for args in measured.support():
            assert abs(measured(*args) - orr(*args)) < TOL

    def test_spt_coefficient_shift_is_glue(self, toric_z2):
        # coefficients x = alpha (a 3-cocycle) act exactly like gluing
        alpha = Cochain(Z2, 3, U1Module(8), {(1, 1, 1): complex(-1.0)})
        t = trivial_twist(toric_z2)
        out = torsor.apply_torsor(toric_z2, t, alpha)
        glued = cons.glue_spt(toric_z2, alpha)
        assert cat.tables_distance(out, glued) == 0.0

    def test_obstruction_metadata_recorded(self, toric_z2):
        for value in (0, E, M, F):
            out = torsor.apply_torsor(toric_z2, twist(toric_z2, value))
            meta = out.metadata["obstruction"]
            assert meta["trivial_class"] is True

    def test_undecidable_class_recorded_as_null(self, toric_z2, monkeypatch):
        def undecidable(first, second):
            raise SnapFailure("off every root")

        monkeypatch.setattr(torsor, "cohomologous", undecidable)
        ones = torsor.trivial_coefficients(toric_z2)
        out = torsor.apply_torsor(toric_z2, twist(toric_z2, E), ones)
        assert out.metadata["obstruction"]["trivial_class"] is None

    def test_class_check_bug_propagates(self, toric_z2, monkeypatch):
        def broken(first, second):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(torsor, "cohomologous", broken)
        ones = torsor.trivial_coefficients(toric_z2)
        with pytest.raises(ZeroDivisionError):
            torsor.apply_torsor(toric_z2, twist(toric_z2, E), ones)

    def test_twisted_fusion_built_once(self, toric_z2, monkeypatch):
        calls = []
        real = torsor.torsored_fusion

        def counting(theory, t):
            calls.append(t)
            return real(theory, t)

        monkeypatch.setattr(torsor, "torsored_fusion", counting)
        torsor.apply_torsor(toric_z2, twist(toric_z2, F))
        assert len(calls) == 1

    def test_twisted_tables_built_once_per_class(self, semion_z22,
                                                 monkeypatch):
        # coefficients stack on after the tables, so each unobstructed
        # fractionalization class builds F, U and eta once for all its alphas
        counted = {name: [] for name in (
            "torsored_f", "torsored_u", "torsored_eta")}
        for name, calls in counted.items():
            real = getattr(torsor, name)

            def counting(*args, _real=real, _calls=calls):
                _calls.append(args)
                return _real(*args)

            monkeypatch.setattr(torsor, name, counting)
        _, _, extensions = torsor.enumerate_extensions(semion_z22)
        built = {ext.fractionalization for ext in extensions
                 if ext.theory is not None}
        assert len(built) == 5
        assert {name: len(calls) for name, calls in counted.items()} == \
            dict.fromkeys(counted, 5)

    def test_twist_validated_once(self, toric_z2, monkeypatch):
        calls = []
        real = torsor.validate_two_cocycle

        def counting(theory, t):
            calls.append(t)
            return real(theory, t)

        monkeypatch.setattr(torsor, "validate_two_cocycle", counting)
        t = twist(toric_z2, F)
        torsor.apply_torsor(toric_z2, t)
        assert calls == [t]

    def test_transfer_table_built_once(self, toric_z2, monkeypatch):
        calls = []
        real = torsor.charge_transfer

        def counting(theory, t, g, h):
            calls.append((g, h))
            return real(theory, t, g, h)

        monkeypatch.setattr(torsor, "charge_transfer", counting)
        torsor.apply_torsor(toric_z2, twist(toric_z2, F))
        # one table: each (g, h) exactly once
        assert sorted(calls) == [(g, h) for g in (0, 1) for h in (0, 1)]


def tables_digest(theories):
    """SHA-256 of repr of each theory's four sorted tables, in order; a
    change in any entry, down to a last bit or a signed zero, moves it."""
    digest = hashlib.sha256()
    for theory in theories:
        digest.update(repr([sorted(theory.f_entries().items()),
                            sorted(theory.r_entries().items()),
                            sorted(theory.u_entries().items()),
                            sorted(theory.eta_entries().items())]).encode())
    return digest.hexdigest()


class TestTwistedTablesGolden:
    def test_enumerated_semion_z22(self, semion_z22):
        _, _, extensions = torsor.enumerate_extensions(semion_z22)
        assert tables_digest(ext.theory for ext in extensions
                             if ext.theory is not None) == (
            "19dbde0f5616861e9cbf448a83bc2744afb9b20be854e37a6217337e41ba3f54")

    def test_apply_torsor_toric_z2(self, toric_z2):
        x = Cochain(Z2, 3, U1Module(8), {(1, 1, 1): turn_phase(Fraction(3, 8))})
        out = torsor.apply_torsor(toric_z2, twist(toric_z2, E), x)
        assert tables_digest([out]) == (
            "5d47499629e292ed395de45585bf801c68d201b1e6eb96024f7e2d14dd7741aa")


class TestEnumerateExtensions:
    def test_class_data_built_once(self, toric_z2, monkeypatch):
        counted = {name: [] for name in (
            "validate_two_cocycle", "torsored_action", "torsored_r")}
        for name, calls in counted.items():
            real = getattr(torsor, name)

            def counting(*args, _real=real, _calls=calls):
                _calls.append(args)
                return _real(*args)

            monkeypatch.setattr(torsor, name, counting)
        base_calls = []
        real_base = con.defectification_obstruction

        def counting_base(*args, **kwargs):
            base_calls.append(args)
            return real_base(*args, **kwargs)

        monkeypatch.setattr(con, "defectification_obstruction", counting_base)
        h2, h3, extensions = torsor.enumerate_extensions(toric_z2)
        classes = h2.size
        assert len(extensions) == classes * h3.size
        built = {ext.fractionalization for ext in extensions
                 if ext.theory is not None}
        assert len(counted["validate_two_cocycle"]) == classes
        assert len(counted["torsored_action"]) == len(built)
        assert len(counted["torsored_r"]) == len(built)
        assert len(base_calls) == 1

    def test_theories_equal_apply_torsor(self, toric_z2):
        _, _, extensions = torsor.enumerate_extensions(toric_z2)
        for ext in extensions[::3]:
            x = torsor.solve_cocycleator(toric_z2, ext.t).combine(ext.alpha)
            alone = torsor.apply_torsor(toric_z2, ext.t, x)
            assert cat.theory_to_json(ext.theory) == cat.theory_to_json(alone)


class TestSptBaseTorsor:
    def test_coefficients_on_unit_spt_reproduce_spt_tables(self):
        # twisting the trivial one-charge-per-grade theory by cocycle
        # coefficients rebuilds the corresponding theory table by table
        trivial = cons.build_spt(Z2, Cochain.identity(Z2, 3, U1Module(8)))
        alpha = Cochain(Z2, 3, U1Module(8), {(1, 1, 1): complex(-1.0)})
        out = torsor.apply_torsor(trivial, trivial_twist(trivial), alpha)
        built = cons.build_spt(Z2, alpha)
        assert cat.tables_distance(out, built) == 0.0

    def test_boundary_coefficient_solution_has_matching_coboundary(self, toric_z2):
        # any solver output for a coboundary twist shares its coboundary with
        # the closed-form coefficients from the relabeling construction
        module = cat.abelian_subgroup(toric_z2)
        z = Cochain(Z2, 1, module, {(1,): 3})
        t = z.coboundary()
        solved = torsor.solve_cocycleator(toric_z2, t)
        closed = boundary_coefficients(toric_z2, z)
        assert solved is not None
        assert solved.coboundary().equal(closed.coboundary(), 1e-8)


class TestNontrivialChargeTransfer:
    def test_nonsymmetric_twist_moves_defects(self):
        # bilinear but nonsymmetric twist on a Z2xZ2 grading: the charge
        # transfer is no longer vacuum-valued, so the twisted action
        # genuinely differs from the original on defect charges
        z22 = FiniteGroup.from_cyclic_factors([2, 2])
        ext = cons.trivial_extension(cons.toric_code(), z22)
        module = cat.abelian_subgroup(ext)
        t = Cochain.from_function(
            z22, 2, module,
            lambda g, h: E if (g // 2) * (h % 2) else ext.vacuum)
        torsor.validate_two_cocycle(ext, t)
        assert torsor.charge_transfer(ext, t, 2, 1) != ext.vacuum
        action = torsor.torsored_action(torsor.Twist(ext, t))
        assert action != ext.action
        for a in ext.charges():
            if ext.grade(a) == 0:
                for k in z22.elements():
                    assert action[k][a] == ext.act(k, a)

    def test_nonsymmetric_twist_full_consistency(self):
        z22 = FiniteGroup.from_cyclic_factors([2, 2])
        ext = cons.trivial_extension(cons.toric_code(), z22)
        module = cat.abelian_subgroup(ext)
        t = Cochain.from_function(
            z22, 2, module,
            lambda g, h: E if (g // 2) * (h % 2) else ext.vacuum)
        out = torsor.apply_torsor(ext, t)
        assert con.check_pentagon(out).passed(TOL)
        for rep in con.check_heptagons(out):
            assert rep.passed(TOL)
        assert con.check_eta_associativity(out).passed(TOL)
        assert con.check_kappa_sliding(out).passed(TOL)
        assert cat.validate(out) == []


class TestNonabelianGrading:
    def test_s3_extension_twist_full_consistency(self):
        # conjugation-heavy paths: grades k̃ g k differ from g
        import itertools as it

        perms = list(it.permutations(range(3)))
        idx = {p: i for i, p in enumerate(perms)}
        table = [[idx[tuple(q[p[i]] for i in range(3))] for q in perms]
                 for p in perms]
        s3 = FiniteGroup.from_table(table, "S3")
        sign = [0 if sorted([p.index(0), p.index(1), p.index(2)]) and
                sum(1 for i in range(3) for j in range(i + 1, 3)
                    if p[i] > p[j]) % 2 == 0 else 1 for p in perms]
        ext = cons.trivial_extension(cons.toric_code(), s3)
        module = cat.abelian_subgroup(ext)
        t = Cochain.from_function(
            s3, 2, module,
            lambda g, h: E if sign[g] and sign[h] else ext.vacuum)
        torsor.validate_two_cocycle(ext, t)
        out = torsor.apply_torsor(ext, t)
        assert con.check_pentagon(out).passed(TOL)
        for rep in con.check_heptagons(out):
            assert rep.passed(TOL)
        assert con.check_eta_associativity(out).passed(TOL)
        assert con.check_kappa_sliding(out).passed(TOL)


@pytest.fixture(scope="module")
def semion_z22():
    z22 = FiniteGroup.from_cyclic_factors([2, 2])
    return cons.trivial_extension(cons.semion(), z22)


class TestObstructedTwist:
    def anomalous_twist(self, ext):
        module = cat.abelian_subgroup(ext)
        return Cochain.from_function(
            ext.group, 2, module,
            lambda g, h: 1 if (g // 2) * (h % 2) else ext.vacuum)

    def test_nontrivial_obstruction_class(self, semion_z22):
        t = self.anomalous_twist(semion_z22)
        orr = torsor.relative_obstruction(semion_z22, t)
        assert is_cocycle(orr, 1e-7)
        assert torsor.solve_coefficients_for(orr) is None
        with pytest.raises(NotACocycle):
            torsor.apply_torsor(semion_z22, t)

    def test_anomalous_data_still_builds_and_fails_only_the_pentagon(
            self, semion_z22):
        # with explicit unit coefficients the tables exist, the braiding
        # coherence holds, and the four-defect pentagon carries the anomaly
        t = self.anomalous_twist(semion_z22)
        ones = torsor.trivial_coefficients(semion_z22)
        out = torsor.apply_torsor(semion_z22, t, ones)
        for rep in con.check_heptagons(out):
            assert rep.passed(TOL)
        assert con.check_pentagon(out, max_nontrivial_defects=3).passed(TOL)
        assert not con.check_pentagon(out).passed(TOL)
        measured = con.defectification_obstruction(out)
        orr = torsor.relative_obstruction(semion_z22, t)
        for args in measured.support():
            assert abs(measured(*args) - orr(*args)) < TOL

    def test_nontrivial_cochain_in_trivial_class_still_twists(self, semion_z22):
        module = cat.abelian_subgroup(semion_z22)
        t = Cochain.from_function(
            semion_z22.group, 2, module,
            lambda g, h: 1 if (g // 2) * (h // 2) else semion_z22.vacuum)
        orr = torsor.relative_obstruction(semion_z22, t)
        assert any(abs(orr(*a) - 1.0) > TOL for a in orr.support())
        out = torsor.apply_torsor(semion_z22, t)
        assert con.check_pentagon(out).passed(TOL)
        for rep in con.check_heptagons(out):
            assert rep.passed(TOL)


class TestObstructionGaugeVariation:
    def test_gauge_shifts_obstruction_by_a_coboundary(self, toric_z2):
        # under a combined vertex/sheet gauge the obstruction moves by the
        # coboundary of an explicit 2-cochain built from the gauge phases
        import random

        from gxbtc import equivalence as eq
        from gxbtc.groups import U1Module as U1

        rng = random.Random(5)
        mod8 = U1(8)
        vertex = {}
        for a, b, c in toric_z2.fusion_triples():
            if a == toric_z2.vacuum or b == toric_z2.vacuum:
                continue
            vertex[(a, b, c)] = mod8.value(rng.randrange(8))
        sheet = {}
        for a in toric_z2.charges():
            if a == toric_z2.vacuum:
                continue
            for g in toric_z2.group.nonidentity():
                sheet[(a, g)] = mod8.value(rng.randrange(8))
        gauge = eq.GaugeTransform(vertex, sheet)
        gauged = eq.apply_gauge(toric_z2, gauge)

        module = cat.abelian_subgroup(toric_z2)
        t = Cochain(Z2, 2, module, {(1, 1): F})
        orr = torsor.relative_obstruction(toric_z2, t)
        orr_gauged = torsor.relative_obstruction(gauged, t)

        grp = toric_z2.group
        tr = toric_z2.translate

        def shift(g, h, k):
            # vertex ratio times the inverse sheet phase on the twist line;
            # the sheet orientation is fixed by this identity itself
            gh, hk = grp.op(g, h), grp.op(h, k)
            gt_hk = toric_z2.act(g, t(h, k))
            top = gauge.gamma(t(g, hk), gt_hk, tr(t(g, hk), gt_hk))
            bottom = gauge.gamma(t(gh, k), t(g, h), tr(t(gh, k), t(g, h)))
            return (top / bottom) * gauge.phase(gt_hk, g).conjugate()

        mu = Cochain.from_function(Z2, 3, U1(8), shift)
        expected = orr.combine(mu.coboundary())
        for args in expected.support():
            assert abs(orr_gauged(*args) - expected(*args)) < TOL


TWIST_CASES = {
    "toric x Z2": strategies.toric_z2_twist,
    "semion x Z2xZ2": strategies.semion_z2xz2_twist,
    "fibonacci x Z2": strategies.fibonacci_z2_twist,
    "toric x S3": strategies.toric_s3_twist,
}


@st.composite
def perturbed_twists(draw):
    """The twist of a drawn case, on its base theory with perturbed tables."""
    name = draw(st.sampled_from(sorted(TWIST_CASES)))
    base, t = TWIST_CASES[name]()
    theory = draw(strategies.perturbed({name: lambda: base}))
    return torsor.Twist(theory, t)


# A failing draw is reported as drawn: shrinking it reruns the loop oracle,
# 0.15 s per call on toric x S3, and took longer than 10 minutes.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


def _table_outcome(build, twist):
    try:
        return repr(list(build(twist).items()))
    except GxError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestTwistedTableKernels:
    """torsored_f and torsored_u on the numpy index against the loops of
    tests/oracles.py, compared through repr: the same keys in the same
    order with the same values, or the same error for a dropped entry."""

    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(perturbed_twists())
    def test_f_matches_loops(self, twist):
        assert _table_outcome(torsor.torsored_f, twist) == \
            _table_outcome(oracles.loop_torsored_f, twist)

    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(perturbed_twists())
    def test_u_matches_loops(self, twist):
        assert _table_outcome(torsor.torsored_u, twist) == \
            _table_outcome(oracles.loop_torsored_u, twist)

    @pytest.mark.parametrize("table, key", [
        ("f", (5, 5, 1, 1, 0, 4)), ("r", (3, 5, 6)), ("u", (1, 1, 2, 3))])
    def test_missing_base_entry_names_first_lookup(self, table, key):
        base, t = strategies.toric_z2_twist()
        entries = dict(getattr(base, f"{table}_entries")())
        del entries[key]
        twist = torsor.Twist(base.replace(**{table: entries}), t)
        outcomes = [_table_outcome(build, twist) for build in (
            torsor.torsored_f, torsor.torsored_u)]
        assert outcomes == [_table_outcome(loop, twist) for loop in (
            oracles.loop_torsored_f, oracles.loop_torsored_u)]
        assert any(out.startswith("InadmissibleTuple: ") for out in outcomes)
