
import pytest

from gxbtc import category as cat
from gxbtc import compose as cmp
from gxbtc import equivalence as eq
from gxbtc import torsor
from gxbtc.groups import Cochain, FiniteGroup, is_cocycle

import oracles

Z2 = FiniteGroup.cyclic(2)
TOL = 1e-9
E, M, F = 1, 2, 3


def twist(theory, value):
    module = cat.abelian_subgroup(theory)
    if value == theory.vacuum:
        return Cochain.identity(theory.group, 2, module)
    return Cochain(theory.group, 2, module, {(1, 1): value})


def torsor_input(theory, value, x=None):
    t = twist(theory, value)
    if x is None:
        x = torsor.solve_cocycleator(theory, t)
    return torsor.TorsorInput(t, x)


class TestComposeTorsors:
    def test_left_identity(self, toric_z2):
        trivial = torsor_input(toric_z2, 0)
        other = torsor_input(toric_z2, E)
        composite, gauge = cmp.compose_torsors(toric_z2, trivial, other)
        assert not any(composite.t.combine(other.t.inverse()).vec)
        assert not any(composite.x.combine(other.x.inverse()).vec)
        assert oracles.gauge_is_trivial(gauge)

    def test_twists_multiply(self, toric_z2):
        composite, _ = cmp.compose_torsors(
            toric_z2, torsor_input(toric_z2, E), torsor_input(toric_z2, M))
        assert composite.t(1, 1) == F

    def test_each_twist_validated_once(self, toric_z2, monkeypatch):
        first = torsor_input(toric_z2, E)
        second = torsor_input(toric_z2, M)
        calls = []
        real = torsor.validate_two_cocycle

        def counting(theory, t):
            calls.append(t)
            return real(theory, t)

        monkeypatch.setattr(torsor, "validate_two_cocycle", counting)
        composite, _ = cmp.compose_torsors(toric_z2, first, second)
        assert calls == [first.t, second.t, composite.t]

    @pytest.mark.parametrize("pair", [(E, M), (M, E), (F, E), (F, F)])
    def test_sequential_equals_gauged_composite(self, toric_z2, pair):
        first = torsor_input(toric_z2, pair[0])
        second = torsor_input(toric_z2, pair[1])
        mid = torsor.apply_torsor(toric_z2, first.t, first.x)
        sequential = torsor.apply_torsor(mid, second.t, second.x)
        composite, gauge = cmp.compose_torsors(toric_z2, first, second)
        single = torsor.apply_torsor(toric_z2, composite.t, composite.x)
        assert cat.tables_distance(eq.apply_gauge(single, gauge),
                                   sequential) < TOL

    def test_composite_coefficients_solve_their_pentagon(self, toric_z2):
        # with the second twist's coefficients solved on the mid theory,
        # the composite coefficients invert the composite obstruction
        first = torsor_input(toric_z2, F)
        mid = torsor.apply_torsor(toric_z2, first.t, first.x)
        t2 = twist(toric_z2, M)
        second = torsor.TorsorInput(t2, torsor.solve_cocycleator(mid, t2))
        composite, _ = cmp.compose_torsors(toric_z2, first, second)
        orr = torsor.relative_obstruction(toric_z2, composite.t)
        assert not any(composite.x.coboundary().combine(orr).vec)

    def test_base_solved_second_coefficients_shift_the_obstruction(self, toric_z2):
        # solving the second coefficients on the base instead records the
        # monodromy mismatch between the two stages
        first = torsor_input(toric_z2, F)
        mid = torsor.apply_torsor(toric_z2, first.t, first.x)
        t2 = twist(toric_z2, M)
        base_orr = torsor.relative_obstruction(toric_z2, t2)
        mid_orr = torsor.relative_obstruction(mid, t2)
        assert not any(base_orr.vec)
        assert abs(mid_orr(1, 1, 1, 1) + 1.0) < TOL


class TestCommutator:
    def test_trivial_when_either_twist_trivial(self, toric_z2):
        t0 = twist(toric_z2, 0)
        te = twist(toric_z2, E)
        for a, b in [(t0, te), (te, t0), (t0, t0)]:
            result = cmp.commutator_class(toric_z2, a, b)
            assert not any(result.cochain.vec)
            assert result.residual < TOL

    def test_toric_em_commutator_value(self, toric_z2):
        te, tm = twist(toric_z2, E), twist(toric_z2, M)
        result = cmp.commutator_class(toric_z2, te, tm)
        # on Z2 the two monodromy factors coincide tuple by tuple
        assert abs(result.cochain(1, 1, 1) - 1.0) < TOL

    @pytest.mark.parametrize("pair", [(E, M), (M, F), (F, F), (E, E)])
    def test_witness_identity(self, toric_z2, pair):
        ta, tb = twist(toric_z2, pair[0]), twist(toric_z2, pair[1])
        result = cmp.commutator_class(toric_z2, ta, tb)
        assert is_cocycle(result.cochain)
        assert result.residual < TOL

    def test_witness_identity_on_z2xz2(self):
        # a group where the two twist orders genuinely differ; bilinear
        # forms in the group coordinates are always closed
        from gxbtc import constructions as cons

        z22 = FiniteGroup.from_cyclic_factors([2, 2])
        ext = cons.trivial_extension(cons.toric_code(), z22)
        module = cat.abelian_subgroup(ext)
        t1 = Cochain.from_function(
            z22, 2, module,
            lambda g, h: E if (g // 2) * (h // 2) else ext.vacuum)
        t2 = Cochain.from_function(
            z22, 2, module,
            lambda g, h: M if (g % 2) * (h % 2) else ext.vacuum)
        torsor.validate_two_cocycle(ext, t1)
        torsor.validate_two_cocycle(ext, t2)
        result = cmp.commutator_class(ext, t1, t2)
        assert any(abs(result.cochain(*args) - 1.0) > TOL
                   for args in result.cochain.support())
        assert result.residual < TOL


class TestAssociativity:
    @pytest.mark.parametrize("triple", [(E, M, F), (F, F, E)])
    def test_composition_associative_up_to_gauge(self, toric_z2, triple):
        inputs = [torsor_input(toric_z2, v) for v in triple]
        left_pair, _ = cmp.compose_torsors(toric_z2, inputs[0], inputs[1])
        left, _ = cmp.compose_torsors(toric_z2, left_pair, inputs[2])
        right_pair, _ = cmp.compose_torsors(toric_z2, inputs[1], inputs[2])
        right, _ = cmp.compose_torsors(toric_z2, inputs[0], right_pair)
        assert not any(left.t.combine(right.t.inverse()).vec)
        out_left = torsor.apply_torsor(toric_z2, left.t, left.x)
        out_right = torsor.apply_torsor(toric_z2, right.t, right.x)
        witness = eq.theories_equivalent(out_left, out_right)
        assert witness is not None


class TestNontrivialGaugeComposition:
    def test_anomalous_twists_still_compose(self):
        # nonsymmetric twists on a Z2xZ2-graded semion extension: the
        # charge transfer is semion-valued, so the composition gauge picks
        # up genuine braiding phases; the twists are individually
        # obstructed, which the composition identity does not care about
        z22 = FiniteGroup.from_cyclic_factors([2, 2])
        ext = cons.trivial_extension(cons.semion(), z22)
        module = cat.abelian_subgroup(ext)
        t1 = Cochain.from_function(
            z22, 2, module,
            lambda g, h: 1 if (g // 2) * (h % 2) else ext.vacuum)
        t2 = Cochain.from_function(
            z22, 2, module,
            lambda g, h: 1 if (g % 2) * (h // 2) else ext.vacuum)
        assert torsor.charge_transfer(ext, t1, 2, 1) != ext.vacuum
        ones = torsor.trivial_coefficients(ext)
        first = torsor.TorsorInput(t1, ones)
        second = torsor.TorsorInput(t2, ones)
        mid = torsor.apply_torsor(ext, t1, ones)
        sequential = torsor.apply_torsor(mid, t2, ones)
        composite, gauge = cmp.compose_torsors(ext, first, second)
        assert not oracles.gauge_is_trivial(gauge)
        single = torsor.apply_torsor(ext, composite.t, composite.x)
        assert cat.tables_distance(eq.apply_gauge(single, gauge),
                                   sequential) < TOL


from gxbtc import constructions as cons  # noqa: E402  (test-local import)
