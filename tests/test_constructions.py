import pytest

from gxbtc import category as cat
from gxbtc import consistency as con
from gxbtc import constructions as cons
from gxbtc import torsor
from gxbtc.errors import NotACocycle
from gxbtc.groups import Cochain, FiniteGroup, U1Module, is_cocycle

import oracles

Z2 = FiniteGroup.cyclic(2)
Z3 = FiniteGroup.cyclic(3)
TOL = 1e-9


def alpha_z2(sign):
    return Cochain(Z2, 3, U1Module(8), {(1, 1, 1): complex(sign)})


def x_cochain(value):
    return Cochain(Z2, 3, U1Module(8), {(1, 1, 1): value})


class TestBuildSpt:
    def test_trivial_cocycle_gives_unit_data(self):
        theory = cons.build_spt(Z2, alpha_z2(1.0))
        assert all(v == 1.0 for v in theory.f_entries().values())
        assert all(v == 1.0 for v in theory.u_entries().values())
        assert all(v == 1.0 for v in theory.eta_entries().values())

    def test_nontrivial_z2_values(self):
        theory = cons.build_spt(Z2, alpha_z2(-1.0))
        assert theory.f_symbol(1, 1, 1, 1, 0, 0) == -1.0
        # U_1(1,1;0) = 1/alpha(1,1,1) = -1
        assert theory.u_symbol(1, 1, 1, 0) == -1.0

    def test_consistency(self):
        for sign in (1.0, -1.0):
            theory = cons.build_spt(Z2, alpha_z2(sign))
            assert con.check_pentagon(theory).passed(TOL)
            for rep in con.check_heptagons(theory):
                assert rep.passed(TOL)

    def test_z3_spt_consistent(self):
        from gxbtc.groups import cohomology

        h3 = cohomology(Z3, 3, U1Module(24))
        for alpha in h3.all_classes():
            theory = cons.build_spt(Z3, alpha)
            assert con.check_pentagon(theory).passed(TOL)
            for rep in con.check_heptagons(theory):
                assert rep.passed(TOL)
            assert con.check_eta_associativity(theory).passed(TOL)
            assert con.check_kappa_sliding(theory).passed(TOL)

    def test_non_cocycle_rejected(self):
        chi = Cochain(Z2, 3, U1Module(4), {(1, 1, 1): 1j})
        with pytest.raises(NotACocycle):
            cons.build_spt(Z2, chi)


class TestGlueSpt:
    def test_glue_identity(self, toric_z2):
        glued = cons.glue_spt(toric_z2, alpha_z2(1.0))
        assert cat.tables_distance(glued, toric_z2) == 0.0

    def test_group_law(self, toric_z2):
        # gluing twice equals gluing the product cocycle
        a1, a2 = alpha_z2(-1.0), alpha_z2(-1.0)
        twice = cons.glue_spt(cons.glue_spt(toric_z2, a1), a2)
        once = cons.glue_spt(toric_z2, a1.combine(a2))
        assert cat.tables_distance(twice, once) < 1e-15

    def test_glue_equals_torsor_with_cocycle_coefficients(self, toric_z2):
        alpha = alpha_z2(-1.0)
        out = torsor.apply_torsor(toric_z2, oracles.trivial_twist(toric_z2), alpha)
        glued = cons.glue_spt(toric_z2, alpha)
        assert cat.tables_distance(out, glued) == 0.0

    def test_glued_theory_consistent(self, semion_z2):
        glued = cons.glue_spt(semion_z2, alpha_z2(-1.0))
        assert con.check_pentagon(glued).passed(TOL)
        for rep in con.check_heptagons(glued):
            assert rep.passed(TOL)


class TestTrivialExtension:
    def test_toric_extension_shape(self, toric, toric_z2):
        assert toric_z2.num_charges == 8
        assert cat.validate(toric_z2) == []
        assert con.check_pentagon(toric_z2).passed(TOL)

    def test_vacuum_only_base_is_trivial_spt(self):
        vac = cons._abelian_theory(lambda a, b: 0, lambda a, b, c: complex(1.0),
                                   lambda a, b: complex(1.0), "vacuum", ["1"])
        ext = cons.trivial_extension(vac, Z2)
        spt = cons.build_spt(Z2, Cochain.identity(Z2, 3, U1Module(8)))
        assert cat.tables_distance(ext, spt) == 0.0

    def test_abelian_sector_preserved(self, toric, toric_z2):
        assert cat.abelian_subgroup(toric).factors == \
            cat.abelian_subgroup(toric_z2).factors


class TestClosedForms:
    def grid(self, theory):
        module = cat.abelian_subgroup(theory)
        twists = []
        for a in module.charges:
            if a == theory.vacuum:
                twists.append(Cochain.identity(theory.group, 2, module))
            else:
                twists.append(Cochain(theory.group, 2, module, {(1, 1): a}))
        coeffs = [x_cochain(v) for v in
                  (1.0, -1.0, 1j, torsor.U1Module(8).value(1))]
        return twists, coeffs

    def test_trivial_inputs_reproduce_extension(self, toric, toric_z2):
        t = oracles.trivial_twist(toric_z2)
        x = torsor.trivial_coefficients(toric_z2)
        closed = oracles.trivial_action_closed_forms(toric, Z2, t, x)
        assert cat.tables_distance(closed, toric_z2) == 0.0

    @pytest.mark.parametrize("base", ["toric", "semion"])
    def test_closed_forms_match_pipeline_on_grid(self, base, toric, toric_z2,
                                                 semion_theory, semion_z2):
        c0, ext = ((toric, toric_z2) if base == "toric"
                   else (semion_theory, semion_z2))
        twists, coeffs = self.grid(ext)
        for t in twists:
            for x in coeffs:
                closed = oracles.trivial_action_closed_forms(c0, Z2, t, x)
                piped = torsor.apply_torsor(ext, t, x)
                assert cat.tables_distance(closed, piped) < TOL

    def test_closed_form_obstruction_matches(self, toric, toric_z2,
                                             semion_theory, semion_z2):
        for c0, ext in [(toric, toric_z2), (semion_theory, semion_z2)]:
            module = cat.abelian_subgroup(ext)
            for a in module.charges:
                if a == ext.vacuum:
                    continue
                t = Cochain(ext.group, 2, module, {(1, 1): a})
                closed = oracles.trivial_action_obstruction(c0, Z2, t)
                generic = torsor.relative_obstruction(ext, t)
                for args in closed.support():
                    assert abs(closed(*args) - generic(*args)) < TOL

    def test_closed_form_obstruction_is_cocycle_and_class_function(self, toric,
                                                                   toric_z2):
        # class representatives with cohomologous twists give cohomologous
        # obstruction phases
        module = cat.abelian_subgroup(toric_z2)
        for a in module.charges:
            t = (Cochain.identity(Z2, 2, module) if a == toric_z2.vacuum
                 else Cochain(Z2, 2, module, {(1, 1): a}))
            ob = oracles.trivial_action_obstruction(toric, Z2, t)
            assert is_cocycle(ob)
