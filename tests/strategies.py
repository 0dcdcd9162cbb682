"""Theories and a hypothesis strategy shared by the kernel tests.

The array kernels of gxbtc.consistency and gxbtc.torsor are compared with
the loops of tests/oracles.py on these theories, with their tables
perturbed.  Each theory is built once per test run, and only when a test
draws it.
"""

import cmath
import functools
import itertools
import random

from hypothesis import strategies as st

from gxbtc import category as cat
from gxbtc import constructions as cons
from gxbtc import torsor
from gxbtc.groups import Cochain, FiniteGroup

Z2 = FiniteGroup.cyclic(2)
Z2XZ2 = FiniteGroup.from_cyclic_factors([2, 2])
E = 1  # the toric code's e


@functools.cache
def toric_z2_twist():
    """Toric code x Z2 and the fusion twist t(1, 1) = f."""
    base = cons.trivial_extension(cons.toric_code(), Z2)
    return base, Cochain(Z2, 2, cat.abelian_subgroup(base), {(1, 1): 3})


@functools.cache
def semion_z2xz2_twist():
    """Semion x Z2xZ2 and a twist whose relative obstruction is nontrivial."""
    base = cons.trivial_extension(cons.semion(), Z2XZ2)
    return base, Cochain.from_function(
        Z2XZ2, 2, cat.abelian_subgroup(base),
        lambda g, h: 1 if (g // 2) * (h % 2) else base.vacuum)


@functools.cache
def fibonacci_z2_twist():
    """Fibonacci x Z2, non-abelian fusion, and its only (trivial) twist."""
    base = cons.trivial_extension(cons.fibonacci(), Z2)
    return base, Cochain.identity(Z2, 2, cat.abelian_subgroup(base))


@functools.cache
def toric_s3_twist():
    """Toric code x S3 and the twist t(g, h) = e for odd g and h.

    S3 is not abelian, so its action moves a defect charge to another
    grade; every other fixture group acts within each grade.
    """
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    s3 = FiniteGroup.from_table(
        [[index[tuple(p[q[i]] for i in range(3))] for q in perms]
         for p in perms], "S3")
    odd = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2
           for p in perms]
    base = cons.trivial_extension(cons.toric_code(), s3)
    return base, Cochain.from_function(
        s3, 2, cat.abelian_subgroup(base),
        lambda g, h: E if odd[g] and odd[h] else base.vacuum)


@functools.cache
def toric_s3_twisted():
    """The twist of :func:`toric_s3_twist`, with solved coefficients."""
    return torsor.apply_torsor(*toric_s3_twist())


def _tables(theory):
    return {"f": theory.f_entries(), "r": theory.r_entries(),
            "u": theory.u_entries(), "eta": theory.eta_entries()}


@st.composite
def perturbed(draw, theories):
    """One of ``theories`` (name -> function of no arguments that builds
    it), with a drawn share of each table's values turned by e^{i theta},
    |theta| up to a drawn scale (from rounding-size to any angle); half the
    time one drawn entry is dropped, which every sweep reads as 0."""
    theory = theories[draw(st.sampled_from(sorted(theories)))]()
    # a drawn seed, not st.randoms(): 24-charge tables would exhaust the
    # data hypothesis may draw for one example
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    tables = {}
    for name, entries in _tables(theory).items():
        scale = draw(st.sampled_from([0.0, 1e-13, 1e-8, 0.3, cmath.pi]))
        share = draw(st.sampled_from([0.02, 0.3, 1.0]))
        tables[name] = {
            key: value * cmath.exp(1j * rng.uniform(-scale, scale))
            if rng.random() < share else value
            for key, value in sorted(entries.items())}
    if draw(st.booleans()):
        table = tables[draw(st.sampled_from(sorted(tables)))]
        del table[rng.choice(sorted(table))]
    return theory.replace(**tables)
