"""Cochains as integer vectors against the value-by-value closures of
tests/oracles.py, with the faces memo read cold and warm; the relative
obstruction and omega_z, computed on the numpy index, against their scalar
formulas; and untimed guards on the snaps and the memory the cochain paths
take."""

import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gxbtc import category as cat
from gxbtc import cli
from gxbtc import constructions as cons
from gxbtc import equivalence as eq
from gxbtc import groups as gr
from gxbtc import torsor
from gxbtc.errors import GxError

import oracles
import strategies

Z2 = gr.FiniteGroup.cyclic(2)
Z3 = gr.FiniteGroup.cyclic(3)
Z2XZ2 = gr.FiniteGroup.from_cyclic_factors([2, 2])
_PERMS = list(itertools.permutations(range(3)))
S3 = gr.FiniteGroup.from_table(
    [[_PERMS.index(tuple(p[q[i]] for i in range(3))) for q in _PERMS]
     for p in _PERMS], "S3")
# a homomorphism onto Z2 per group, for a nontrivial action on Z2 x Z2
ODD = {Z2.name: [0, 1], Z3.name: [0, 0, 0], Z2XZ2.name: [0, 0, 1, 1],
       S3.name: [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2
                 for p in _PERMS]}

MODULES = {
    "u1-8": lambda group: gr.U1Module(8),
    "u1-24": lambda group: gr.U1Module(24),
    "z2": lambda group: gr.AbelianModule([2], group),
    "z2xz2-swapped": lambda group: gr.AbelianModule(
        [2, 2], group, lambda g, a: (a[1], a[0]) if ODD[group.name][g] else a),
}


@st.composite
def cochains(draw, group, degree, module):
    """A normalized cochain with drawn values, built from its entries."""
    entries = {}
    for args in itertools.product(group.nonidentity(), repeat=degree):
        coords = tuple(draw(st.integers(0, m - 1)) for m in module.factors)
        entries[args] = module.from_vec(coords)
    return gr.Cochain(group, degree, module, entries)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_arithmetic_matches_closures(data):
    group = data.draw(st.sampled_from([Z2, Z3, Z2XZ2, S3]))
    name = data.draw(st.sampled_from(sorted(MODULES)))
    module = MODULES[name](group)
    other = module
    if module.kind == "u1":  # products across root orders land in the lcm
        other = gr.U1Module(data.draw(st.sampled_from([8, 24])))
    degree = data.draw(st.integers(1, 3))
    a = data.draw(cochains(group, degree, module))
    b = data.draw(cochains(group, degree, other))
    product = a.combine(b)
    assert gr.Cochain(group, degree, module, a.entries).vec == a.vec
    assert gr.Cochain(group, degree + 1, module,
                      oracles.closure_coboundary(a)).vec == a.coboundary().vec
    assert gr.Cochain(group, degree, product.module,
                      oracles.closure_combine(a, b)).vec == product.vec
    assert gr.Cochain(group, degree, module,
                      oracles.closure_inverse(a)).vec == a.inverse().vec
    assert gr.is_cocycle(a) == all(
        not any(module.to_vec(v)) for v in oracles.closure_coboundary(a).values())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_shared_faces_give_the_same_coboundary(data):
    group = data.draw(st.sampled_from([Z2, Z3, Z2XZ2, S3]))
    module = MODULES[data.draw(st.sampled_from(sorted(MODULES)))](group)
    degree = data.draw(st.integers(1, 3))
    gr._FACES_CACHE.clear()
    for _ in range(2):  # built cold, then read from the memo, not used up
        a = data.draw(cochains(group, degree, module))
        closure = oracles.closure_coboundary(a)
        assert a.coboundary().vec == gr.Cochain(group, degree + 1, module, closure).vec
        assert gr.is_cocycle(a) == all(not any(module.to_vec(v)) for v in closure.values())


def test_faces_kept_apart_for_groups_of_one_size():
    # Z4 and Z2 x Z2 have equally many tuples in each degree, so only
    # their tables tell their faces apart
    z4 = gr.FiniteGroup.cyclic(4)
    module = gr.U1Module(8)
    rng = random.Random(4)
    gr._FACES_CACHE.clear()
    for degree in (1, 2, 3, 2, 1):
        for group in (z4, Z2XZ2, z4):
            a = gr.Cochain.from_vec(group, degree, module,
                                    [rng.randrange(8) for _ in range(3 ** degree)])
            assert a.coboundary().vec == gr.Cochain(
                group, degree + 1, module, oracles.closure_coboundary(a)).vec


CASES = {
    "toric x Z2": strategies.toric_z2_twist,
    "semion x Z2xZ2": strategies.semion_z2xz2_twist,
    "toric x S3": strategies.toric_s3_twist,
    "fibonacci x Z2": strategies.fibonacci_z2_twist,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_obstruction_phases_match_scalar_formula(name):
    # through repr, so a last-bit or signed-zero difference fails
    twist = torsor.Twist(*CASES[name]())
    assert repr(list(torsor._obstruction(twist).items())) == \
        repr(list(oracles.loop_relative_obstruction(twist).items()))


def closed_relabelings(theory):
    module = cat.abelian_subgroup(theory)
    slots = [(g,) for g in theory.group.nonidentity()]
    for combo in itertools.product(module.charges, repeat=len(slots)):
        z = gr.Cochain(theory.group, 1, module, dict(zip(slots, combo)))
        if gr.is_cocycle(z):
            yield z


def _relabel_outcome(theory, z, phases):
    try:
        return repr(list(phases(theory, z).items()))
    except GxError as exc:
        return f"{type(exc).__name__}: {exc}"


# the twist cases, their twisted theories at x = 1, and Z4 anyons over Z4,
# whose closed 1-cochains take charges that are not their own inverses
RELABEL_THEORIES = {
    **{name: (lambda build=build: build()[0]) for name, build in CASES.items()},
    **{f"{name} twisted": (lambda build=build: torsor.Twist(*build()).unit)
       for name, build in CASES.items()},
    "z4 x Z4": lambda: cons.trivial_extension(cons.z4_anyons(), gr.FiniteGroup.cyclic(4)),
}


@pytest.mark.parametrize("name", sorted(RELABEL_THEORIES))
def test_relabel_phases_match_scalar_formula(name):
    theory = RELABEL_THEORIES[name]()
    zs = list(closed_relabelings(theory))
    assert zs
    for z in zs:
        assert _relabel_outcome(theory, z, eq._relabel_phases) == \
            _relabel_outcome(theory, z, oracles.loop_relabel_phases)


@settings(max_examples=20, deadline=None)
@given(strategies.perturbed({name: RELABEL_THEORIES[name]
                             for name in ("toric x Z2", "z4 x Z4")}))
def test_relabel_phases_match_scalar_formula_when_perturbed(theory):
    for z in closed_relabelings(theory):
        assert _relabel_outcome(theory, z, eq._relabel_phases) == \
            _relabel_outcome(theory, z, oracles.loop_relabel_phases)


def test_enumerate_snaps_each_phase_set_once(tmp_path, monkeypatch, capsys):
    # every float-derived cochain of the semion x Z2xZ2 classification is
    # snapped once per distinct value; when cochains held complex values,
    # products, inverses and class checks snapped 5,508 values, and while
    # each class's twisted obstruction was snapped as a product of phases,
    # 64 values
    calls = []
    real = gr.U1Module.exponent_of

    def counting(module, value):
        calls.append(value)
        return real(module, value)

    monkeypatch.setattr(gr.U1Module, "exponent_of", counting)
    path = tmp_path / "semion.json"
    path.write_text(json.dumps(cat.theory_to_json(cons.semion())))
    assert cli.main(["enumerate-extensions", "--c0", str(path),
                     "--group", "Z2x2"]) == 0
    capsys.readouterr()
    assert len(calls) == 54


def test_cocycle_check_on_z13_stays_small():
    # a mu_104 3-cocycle over Z13, as the SPT data of the one failing equiv
    # of the benchmark: type-I cocycle times the coboundary of a random
    # 2-cochain; checking it face by face holds no coboundary matrix
    z13 = gr.FiniteGroup.cyclic(13)
    module = gr.U1Module(104)
    tuples = itertools.product(range(1, 13), repeat=3)
    alpha = gr.Cochain.from_vec(z13, 3, module,
                                [8 * a if b + c >= 13 else 0 for a, b, c in tuples])
    rng = random.Random(13)
    eps = gr.Cochain.from_vec(z13, 2, module, [rng.randrange(104) for _ in range(144)])
    alpha = alpha.combine(eps.coboundary())
    gr._FACES_CACHE.clear()  # measure the faces' build too
    tracemalloc.start()
    try:
        closed = gr.is_cocycle(alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert closed
    assert peak < 2 ** 20
