import cmath
import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gxbtc import groups as gr
from gxbtc import torsor
from gxbtc.errors import (
    InvalidInput,
    NormalizationError,
    NotACocycle,
    RootOrderTooSmall,
    SnapFailure,
)

import oracles

Z2 = gr.FiniteGroup.cyclic(2)
Z3 = gr.FiniteGroup.cyclic(3)
Z4 = gr.FiniteGroup.cyclic(4)
Z5 = gr.FiniteGroup.cyclic(5)
Z6 = gr.FiniteGroup.cyclic(6)
Z2xZ2 = gr.FiniteGroup.from_cyclic_factors([2, 2])
Z2xZ4 = gr.FiniteGroup.from_cyclic_factors([2, 4])
S3_TABLE = None


def s3():
    # permutations of 3 letters, composed left-to-right, just for group axioms
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms]
    return gr.FiniteGroup.from_table(table, "S3")


class TestFiniteGroup:
    def test_cyclic_axioms(self):
        g = Z4
        assert g.order == 4 and g.identity == 0
        assert g.op(3, 2) == 1
        assert g.inverse(3) == 1
        assert oracles.group_exponent(g) == 4

    def test_product_group(self):
        g = Z2xZ2
        assert g.order == 4
        assert all(g.op(x, x) == g.identity for x in g.elements())
        assert oracles.group_exponent(g) == 2

    def test_nonabelian_table(self):
        g = s3()
        assert g.order == 6
        assert any(g.op(a, b) != g.op(b, a) for a in g.elements() for b in g.elements())
        assert oracles.group_exponent(g) == 6

    def test_bad_table_rejected(self):
        with pytest.raises(InvalidInput):
            gr.FiniteGroup.from_table([[0, 1], [1, 1]])


class TestCochainBasics:
    def test_normalization_enforced(self):
        mod = gr.U1Module(4)
        with pytest.raises(NormalizationError):
            gr.Cochain(Z2, 2, mod, {(0, 1): complex(-1.0)})
        # identity values at identity-containing tuples are fine and dropped
        c = gr.Cochain(Z2, 2, mod, {(0, 1): complex(1.0), (1, 1): 1j})
        assert c(0, 1) == 1.0 and c(1, 1) == 1j

    def test_nonphase_rejected(self):
        with pytest.raises(InvalidInput):
            gr.Cochain(Z2, 1, gr.U1Module(4), {(1,): complex(2.0)})

    def test_identity_coboundary_is_identity(self):
        mod = gr.U1Module(8)
        c = gr.Cochain.identity(Z3, 2, mod)
        assert not any(c.coboundary().vec)

    def test_z2_z2_coboundary_vanishes(self):
        # 1-cochain z over Z2 in Z2: dz(1,1) = z(1) + z(1) = 0
        mod = gr.AbelianModule([2], Z2)
        z = gr.Cochain(Z2, 1, mod, {(1,): (1,)})
        assert not any(z.coboundary().vec)

    def test_mu4_two_cochain_is_cocycle_by_oracle(self):
        # dw(1,1,1) = w(1,1) * w(1,0) / (w(0,1) * w(1,1)) = 1
        mod = gr.U1Module(4)
        w = gr.Cochain(Z2, 2, mod, {(1, 1): 1j})
        data = {(1, 1): 1}
        brute = oracles.brute_coboundary(data, Z2, 2, 4)
        assert all(v == 0 for v in brute.values())
        assert gr.is_cocycle(w)

    def test_nontrivial_z2_cocycle(self):
        mod = gr.AbelianModule([2], Z2)
        t = gr.Cochain(Z2, 2, mod, {(1, 1): (1,)})
        assert gr.is_cocycle(t)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Z2, Z3, Z2xZ2]), st.integers(1, 3), st.data())
def test_dd_is_identity(group, degree, data):
    mod_kind = data.draw(st.sampled_from(["u1", "abelian"]))
    if mod_kind == "u1":
        mod = gr.U1Module(8)
        draw_value = lambda: mod.value(data.draw(st.integers(0, 7)))
    else:
        mod = gr.AbelianModule([2, 4], group)
        draw_value = lambda: (data.draw(st.integers(0, 1)), data.draw(st.integers(0, 3)))
    entries = {}
    for args in itertools.product(group.nonidentity(), repeat=degree):
        entries[args] = draw_value()
    c = gr.Cochain(group, degree, mod, entries)
    assert not any(c.coboundary().coboundary().vec)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([Z2, Z3]), st.integers(1, 2), st.data())
def test_coboundaries_are_cocycles_with_witness(group, degree, data):
    mod = gr.U1Module(8)
    entries = {}
    for args in itertools.product(group.nonidentity(), repeat=degree):
        entries[args] = mod.value(data.draw(st.integers(0, 7)))
    mu = gr.Cochain(group, degree, mod, entries)
    omega = mu.coboundary()
    assert gr.is_cocycle(omega)
    witness = gr.cohomologous(omega, gr.Cochain.identity(group, degree + 1, mod))
    assert witness is not None
    assert not any(witness.coboundary().combine(omega.inverse()).vec)


SNAP_SETTINGS = dict(max_examples=300, deadline=None)


@settings(**SNAP_SETTINGS)
@given(st.integers(1, 120), st.data(), st.sampled_from([1e-12, 1e-7]),
       st.sampled_from([96, 24, 8]))
def test_snap_turns_matches_denominator_loop_near_roots(den, data, tol, cap):
    # roots of unity of every order up to past the cap, nudged around the
    # tolerances in use and off the unit circle
    num = data.draw(st.integers(-den, 2 * den))
    shift = data.draw(st.sampled_from(
        [0.0, 1e-14, -1e-13, 1e-10, -1.5e-8, 2e-8, 1e-5]))
    scale = data.draw(st.sampled_from([1.0, 1.0 + 1e-13, 1.0 - 1e-8, 0.5]))
    value = scale * gr.turn_phase(Fraction(num, den)) * cmath.exp(
        1j * math.tau * shift)
    assert gr.snap_turns(value, cap, tol) == oracles.loop_snap_turns(value, cap, tol)


@settings(**SNAP_SETTINGS)
@given(st.complex_numbers(max_magnitude=4.0, allow_nan=False),
       st.sampled_from([1e-12, 1e-7]))
def test_snap_turns_matches_denominator_loop_anywhere(value, tol):
    try:
        expected = oracles.loop_snap_turns(value, 96, tol)
    except OverflowError:
        # the oracle's cmath.phase raises when the angle underflows, as for
        # 2 + 5e-324j; snap_turns must then agree with the zero angle
        expected = oracles.loop_snap_turns(
            complex(value.real, math.copysign(0.0, value.imag)), 96, tol)
    assert gr.snap_turns(value, 96, tol) == expected


class TestCohomology:
    def test_h2_z2_z2(self):
        mod = gr.AbelianModule([2], Z2)
        h = gr.cohomology(Z2, 2, mod)
        assert h.orders == [2]
        count, zc, bc = oracles.brute_abelian_cohomology_classes(Z2, 2, (2,))
        assert count == 2 and h.size == count

    def test_h3_z2_u1(self):
        h = gr.cohomology(Z2, 3, gr.U1Module(8))
        assert h.orders == [2]
        rep = h.representatives[0]
        assert abs(rep(1, 1, 1) + 1.0) < 1e-12  # nontrivial class has value -1
        count, _ = oracles.brute_u1_cohomology_classes(Z2, 3, 2)
        assert count == 2

    def test_h4_z2_u1_trivial(self):
        h = gr.cohomology(Z2, 4, gr.U1Module(8))
        assert h.orders == []
        count, _ = oracles.brute_u1_cohomology_classes(Z2, 4, 2)
        assert count == 1

    def test_h3_z3_u1(self):
        h = gr.cohomology(Z3, 3, gr.U1Module(24))
        assert h.orders == [3]
        count, _ = oracles.brute_u1_cohomology_classes(Z3, 3, 3)
        assert count == 3

    def test_h2_z2_u1_trivial(self):
        h = gr.cohomology(Z2, 2, gr.U1Module(8))
        assert h.orders == []

    def test_h2_z2xz2_u1(self):
        h = gr.cohomology(Z2xZ2, 2, gr.U1Module(8))
        assert h.orders == [2]

    def test_h4_z2xz2_u1_nontrivial(self):
        h = gr.cohomology(Z2xZ2, 4, gr.U1Module(8))
        assert h.orders == [2, 2]

    def test_representatives_are_cocycles_and_distinct(self):
        for h in [gr.cohomology(Z2, 3, gr.U1Module(8)),
                  gr.cohomology(Z3, 3, gr.U1Module(24))]:
            reps = h.all_classes()
            assert len(reps) == h.size
            for r in reps:
                assert gr.is_cocycle(r)
            for a, b in itertools.combinations(reps, 2):
                assert gr.cohomologous(a, b) is None

    def test_class_count_times_boundaries_is_cocycles(self):
        # |H| * |B| = |Z| on groups small enough for the enumeration oracle
        for group, factors in [(Z2, (2,)), (Z3, (3,))]:
            count, zc, bc = oracles.brute_abelian_cohomology_classes(group, 2, factors)
            mod = gr.AbelianModule(list(factors), group)
            h = gr.cohomology(group, 2, mod)
            assert h.size * bc == zc
            assert h.size == count

    def test_root_order_too_small(self):
        with pytest.raises(RootOrderTooSmall):
            gr.cohomology(Z3, 3, gr.U1Module(2))

    def test_twisted_h1_differs_from_untwisted(self):
        # Z2 acting on Z3 by inversion kills H^1(Z2, Z3)
        def action(g, a):
            return a if g == 0 else ((-a[0]) % 3,)
        twisted = gr.AbelianModule([3], Z2, action)
        plain = gr.AbelianModule([3], Z2)
        # untwisted: hom(Z2, Z3) = 0 as well, so use H^2 instead
        h2_twisted = gr.cohomology(Z2, 2, twisted)
        h2_plain = gr.cohomology(Z2, 2, plain)
        count_twisted, _, _ = oracles.brute_abelian_cohomology_classes(
            Z2, 2, (3,), action)
        count_plain, _, _ = oracles.brute_abelian_cohomology_classes(Z2, 2, (3,))
        assert h2_twisted.size == count_twisted
        assert h2_plain.size == count_plain


def _orders_or_too_small(cohomology, group, degree, root_order):
    try:
        return cohomology(group, degree, gr.U1Module(root_order)).orders
    except RootOrderTooSmall:
        return "root order too small"


S3 = s3()

# every degree up to 4 at which the lattice oracle takes under 2 s
ORACLE_SWEEP = [(group, degree)
                for group, top in [(Z2, 4), (Z3, 4), (Z4, 4), (Z5, 3), (Z6, 3),
                                   (Z2xZ2, 4), (Z2xZ4, 2), (S3, 3)]
                for degree in range(1, top + 1)]


@pytest.mark.parametrize("group, degree", ORACLE_SWEEP,
                         ids=[f"{g.name}-{d}" for g, d in ORACLE_SWEEP])
def test_u1_cohomology_matches_lattice_oracle(group, degree):
    # root orders that are and are not multiples of the group exponent
    for order in (2, 3, 4, 12, torsor.default_group_root_order(group)):
        assert _orders_or_too_small(gr.cohomology, group, degree, order) == \
            _orders_or_too_small(oracles.lattice_u1_cohomology, group, degree,
                                 order)


CLASS_CASES = [(group, degree)
               for group in [Z2, Z3, Z4, Z5, Z6, Z2xZ2, Z2xZ4, S3]
               for degree in range(1, 4)] + [(Z4, 4), (Z2xZ2, 4)]


@functools.cache
def _default_u1_cohomology(case):
    group, degree = CLASS_CASES[case]
    return gr.cohomology(group, degree,
                         gr.U1Module(torsor.default_group_root_order(group)))


def _power(cochain, k):
    out = gr.Cochain.identity(cochain.group, cochain.degree, cochain.module)
    for _ in range(k):
        out = out.combine(cochain)
    return out


@pytest.mark.parametrize("case", range(len(CLASS_CASES)),
                         ids=[f"{g.name}-{d}" for g, d in CLASS_CASES])
def test_representatives_have_their_orders_and_unit_coordinates(case):
    h = _default_u1_cohomology(case)
    ident = gr.Cochain.identity(h.group, h.degree, h.module)
    for i, (order, rep) in enumerate(zip(h.orders, h.representatives)):
        assert gr.is_cocycle(rep)
        assert h.class_of(rep) == [int(j == i) for j in range(len(h.orders))]
        for k in range(1, order):
            assert gr.cohomologous(_power(rep, k), ident) is None
        assert not any(_power(rep, order).vec)


def _random_cocycle(h, data):
    """A random product of representative powers times d(mu), and the powers.

    mu takes values in the roots of unity of order N|G|, finer than the
    representatives' root order N.
    """
    powers = [data.draw(st.integers(0, 2 * d)) for d in h.orders]
    out = gr.Cochain.identity(h.group, h.degree, h.module)
    for rep, k in zip(h.representatives, powers):
        out = out.combine(_power(rep, k))
    if h.degree > 1:
        fine = gr.U1Module(h.module.order * h.group.order)
        mu = gr.Cochain.from_function(
            h.group, h.degree - 1, fine,
            lambda *args: fine.value(data.draw(st.integers(0, fine.order - 1))))
        out = out.combine(mu.coboundary())
    return out, [k % d for k, d in zip(powers, h.orders)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(CLASS_CASES) - 1), st.data())
def test_class_coordinates_add_and_kill_coboundaries(case, data):
    h = _default_u1_cohomology(case)
    a, a_coords = _random_cocycle(h, data)
    b, b_coords = _random_cocycle(h, data)
    assert h.class_of(a) == a_coords
    assert h.class_of(b) == b_coords
    assert h.class_of(a.combine(b)) == [
        (x + y) % d for x, y, d in zip(h.class_of(a), h.class_of(b), h.orders)]
    if h.degree > 1:
        mu = gr.Cochain.from_function(
            h.group, h.degree - 1, h.module,
            lambda *args: h.module.value(data.draw(st.integers(0, h.module.order - 1))))
        assert h.class_of(mu.coboundary()) == [0] * len(h.orders)


@pytest.mark.parametrize("group", [Z2, Z3, Z2xZ2, Z4, S3],
                         ids=["Z2", "Z3", "Z2xZ2", "Z4", "S3"])
def test_coordinates_are_the_classes_of_all_classes(group):
    # enumerate-extensions reads an alpha's coordinates off its index
    h = gr.cohomology(group, 3, gr.U1Module(24))
    classes = h.all_classes()
    assert len(classes) == h.size
    assert h.coordinates() == [tuple(h.class_of(alpha)) for alpha in classes]


def test_class_of_rejects_an_unclosed_cochain():
    h = gr.cohomology(Z3, 3, gr.U1Module(24))
    bump = gr.Cochain(Z3, 3, h.module, {(1, 1, 1): h.module.value(1)})
    with pytest.raises(NotACocycle):
        h.class_of(bump)


def test_h3_z2_cubed_u1():
    group = gr.FiniteGroup.from_cyclic_factors([2, 2, 2])
    h = gr.cohomology(group, 3, gr.U1Module(8))
    assert h.orders == [2] * 7
    for i, rep in enumerate(h.representatives):
        assert gr.is_cocycle(rep)
        assert h.class_of(rep) == [int(j == i) for j in range(7)]


def test_h3_z3_squared_u1():
    # a 4096 x 512 coboundary; sparsest-unit pivots keep it under a second
    group = gr.FiniteGroup.from_cyclic_factors([3, 3])
    h = gr.cohomology(group, 3, gr.U1Module(9))
    assert h.orders == [3] * 3
    for i, rep in enumerate(h.representatives):
        assert gr.is_cocycle(rep)
        assert h.class_of(rep) == [int(j == i) for j in range(3)]


class TestCohomologous:
    def test_self_witness_is_identity(self):
        mod = gr.U1Module(8)
        w = gr.Cochain(Z2, 3, mod, {(1, 1, 1): complex(-1.0)})
        witness = gr.cohomologous(w, w)
        assert witness is not None
        assert not any(witness.vec)

    def test_distinct_h3_classes_not_cohomologous(self):
        mod = gr.U1Module(8)
        trivial = gr.Cochain.identity(Z2, 3, mod)
        alpha = gr.Cochain(Z2, 3, mod, {(1, 1, 1): complex(-1.0)})
        assert gr.cohomologous(alpha, trivial) is None

    def test_snap_failure(self):
        mod = gr.U1Module(4)
        val = gr.turn_phase(gr.Fraction(1, 3))
        # a value enters a U(1) cochain as its exponent, so it fails there
        with pytest.raises(SnapFailure):
            gr.Cochain(Z2, 2, mod, {(1, 1): val})

    def test_underflowing_angle_fails_to_snap(self):
        # cmath.phase(2 + 5e-324j) raises OverflowError; the value is simply
        # off the circle
        with pytest.raises(SnapFailure):
            gr.U1Module(4).exponent_of(complex(2.0, 5e-324))


class TestJson:
    def test_cochain_roundtrip_u1(self):
        mod = gr.U1Module(8)
        c = gr.Cochain(Z2, 3, mod, {(1, 1, 1): mod.value(3)})
        blob = gr.cochain_to_json(c)
        back = gr.cochain_from_json(blob, Z2, mod)
        assert not any(back.combine(c.inverse()).vec)
        assert blob["entries"][0]["value"] == {"turns": "3/8"}

    def test_cochain_roundtrip_abelian(self):
        mod = gr.AbelianModule([2, 2], Z2)
        c = gr.Cochain(Z2, 2, mod, {(1, 1): (1, 0)})
        blob = gr.cochain_to_json(c)
        back = gr.cochain_from_json(blob, Z2, mod)
        assert not any(back.combine(c.inverse()).vec)

    def test_cochain_degree_checked_when_given(self):
        mod = gr.U1Module(8)
        blob = gr.cochain_to_json(gr.Cochain(Z2, 3, mod, {(1, 1, 1): mod.value(3)}))
        assert gr.cochain_from_json(blob, Z2, mod, 3).degree == 3
        with pytest.raises(InvalidInput, match="expected a degree-2 cochain, "
                                               "got degree 3"):
            gr.cochain_from_json(blob, Z2, mod, 2)

    def test_phase_json_fallback(self):
        z = complex(0.8, 0.6)
        blob = gr.phase_encoder()(z)
        assert "re" in blob
        assert gr.phase_from_json(blob) == z

    def test_phase_json_underflowing_angle(self):
        assert gr.phase_encoder()(complex(2.0, 5e-324)) == {"re": 2.0, "im": 5e-324}
