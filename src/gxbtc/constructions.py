"""Builders for canonical theories and the in-repo fixture library.

Fixtures ship as code, not data files.  Each abelian fixture is produced
from a bilinear/cocycle presentation whose pentagon and hexagon equations
the test suite re-derives with a brute-force solver, so the fixtures are
pinned by something other than the checkers they feed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import InvalidInput
from .groups import FiniteGroup, turn_phase, validate_cocycle
from .category import GxTheory

ONE = complex(1.0)


# ---------------------------------------------------------------------------
# abelian anyon models from (F, R) value functions


def _abelian_theory(fuse, f_val, r_val, name, charge_names):
    """Identity-graded abelian theory; vacuum is charge 0.

    ``fuse`` is a binary operation on charge indices; ``f_val``/``r_val``
    give the scalar symbols.  The symmetry group is trivial.
    """
    g1 = FiniteGroup.trivial()
    charges = list(range(len(charge_names)))
    fusion = [(a, b, fuse(a, b)) for a in charges for b in charges]
    f = {}
    for a, b, c in itertools.product(charges, repeat=3):
        e, ff = fuse(a, b), fuse(b, c)
        d = fuse(e, c)
        f[(a, b, c, d, e, ff)] = f_val(a, b, c)
    r = {(a, b, fuse(a, b)): r_val(a, b) for a in charges for b in charges}
    u = {(0, a, b, fuse(a, b)): ONE for a in charges for b in charges}
    eta = {(x, 0, 0): ONE for x in charges}
    action = {0: tuple(charges)}
    meta = {"name": name, "asserted_modular": True}
    if charge_names:
        meta["charge_names"] = list(charge_names)
    return GxTheory(g1, [0] * len(charges), 0, fusion, f, r, u, eta, action,
                    metadata=meta)


def toric_code():
    """Charges 1, e, m, f with Z2 x Z2 fusion; F = 1 and bilinear braiding."""
    def fuse(a, b):
        return (a ^ b)

    def r_val(a, b):
        # component bits: a = (e-part, m-part) packed as e + 2m
        am, be = (a >> 1) & 1, b & 1
        return complex(-1.0) if am and be else ONE

    return _abelian_theory(
        fuse, lambda a, b, c: ONE, r_val, "toric_code",
        charge_names=["1", "e", "m", "f"])


def _zn_anyons_fr(n, p):
    """F and R for the cyclic theory with fusion Z_n and level p.

    The hexagon forces F(a,b,c) = (-1)^(p a carry(b,c)) once
    R(a,b) = exp(i pi p a b / n) is chosen.
    """
    def f_val(a, b, c):
        carry = 1 if (b % n) + (c % n) >= n else 0
        return turn_phase(Fraction(p * (a % n) * carry, 2))

    def r_val(a, b):
        return turn_phase(Fraction(p * (a % n) * (b % n), 2 * n))

    return f_val, r_val


def semion():
    """Charges 1, s with s x s = 1; F^{sss} = -1 and R^{ss} = i."""
    f_val, r_val = _zn_anyons_fr(2, 1)
    return _abelian_theory(
        lambda a, b: (a + b) % 2, f_val, r_val,
        "semion", charge_names=["1", "s"])


def double_semion():
    """Semion times its conjugate; charges 1, s, s', ss'."""
    fs, rs = _zn_anyons_fr(2, 1)

    def split(a):
        return a & 1, (a >> 1) & 1

    def fuse(a, b):
        return a ^ b

    def f_val(a, b, c):
        (a1, a2), (b1, b2), (c1, c2) = split(a), split(b), split(c)
        return fs(a1, b1, c1) * fs(a2, b2, c2).conjugate()

    def r_val(a, b):
        (a1, a2), (b1, b2) = split(a), split(b)
        return rs(a1, b1) * rs(a2, b2).conjugate()

    return _abelian_theory(
        fuse, f_val, r_val,
        "double_semion", charge_names=["1", "s", "s'", "ss'"])


def z4_anyons(p=1):
    """Cyclic Z4 fusion with topological spins exp(i pi p a^2 / 4)."""
    f_val, r_val = _zn_anyons_fr(4, p)
    return _abelian_theory(
        lambda a, b: (a + b) % 4, f_val, r_val,
        f"z4_anyons(p={p})", charge_names=["0", "1", "2", "3"])


def fibonacci():
    """Charges 1, tau with tau x tau = 1 + tau; identity-graded only."""
    g1 = FiniteGroup.trivial()
    phi = (1.0 + 5.0 ** 0.5) / 2.0
    I, T = 0, 1
    fusion = [(I, I, I), (I, T, T), (T, I, T), (T, T, I), (T, T, T)]
    f = {}
    for a, b, c in itertools.product([I, T], repeat=3):
        for d in (I, T):
            for e in (I, T):
                for ff in (I, T):
                    ok = all(t in set(fusion) for t in
                             [(a, b, e), (e, c, d), (b, c, ff), (a, ff, d)])
                    if not ok:
                        continue
                    if (a, b, c, d) == (T, T, T, T):
                        val = {(I, I): 1 / phi, (I, T): 1 / phi ** 0.5,
                               (T, I): 1 / phi ** 0.5, (T, T): -1 / phi}[(e, ff)]
                        f[(a, b, c, d, e, ff)] = complex(val)
                    else:
                        f[(a, b, c, d, e, ff)] = ONE
    r = {}
    for a, b, c in fusion:
        if (a, b) == (T, T):
            r[(a, b, c)] = turn_phase(Fraction(-2, 5)) if c == I else turn_phase(Fraction(3, 10))
        else:
            r[(a, b, c)] = ONE
    u = {(0, a, b, c): ONE for a, b, c in fusion}
    eta = {(x, 0, 0): ONE for x in (I, T)}
    return GxTheory(g1, [0, 0], 0, fusion, f, r, u, eta, {0: (0, 1)},
                    metadata={"name": "fibonacci", "asserted_modular": True,
                              "charge_names": ["1", "tau"]})


# ---------------------------------------------------------------------------
# SPT theories


def _spt_tables(group, alpha):
    """F/R/U/eta for the one-charge-per-grade theory built from a U(1)
    3-cochain, each the root of unity of a sum of its exponents."""
    g = group
    exponent = dict(zip(alpha.support(), alpha.vec)).get
    phase = [alpha.module.value(k) for k in range(alpha.module.order)]

    def ratio(top, first=None, second=None):
        return phase[(exponent(top, 0) - exponent(first, 0) - exponent(second, 0))
                     % len(phase)]

    f = {}
    r = {}
    u = {}
    eta = {}
    for a in g.elements():
        for b in g.elements():
            ab = g.op(a, b)
            r[(a, b, ab)] = ONE
            for c in g.elements():
                f[(a, b, c, g.op(ab, c), ab, g.op(b, c))] = ratio((a, b, c))
    for k in g.elements():
        kbar = g.inverse(k)
        for a in g.elements():
            for b in g.elements():
                u[(k, a, b, g.op(a, b))] = ratio(
                    (a, k, g.prod(kbar, b, k)),
                    (a, b, k), (k, g.prod(kbar, a, k), g.prod(kbar, b, k)))
    for k in g.elements():
        for a in g.elements():
            for b in g.elements():
                abar, bbar = g.inverse(a), g.inverse(b)
                eta[(k, a, b)] = ratio(
                    (a, g.prod(abar, k, a), b),
                    (a, b, g.prod(bbar, abar, k, a, b)), (k, a, b))
    return f, r, u, eta


def build_spt(group, alpha):
    """The G-crossed theory with one charge per grade and data from ``alpha``.

    ``alpha`` must be a normalized U(1) 3-cocycle on ``group``.
    """
    validate_cocycle(alpha, degree=3)
    g = group
    charges = list(g.elements())
    fusion = [(a, b, g.op(a, b)) for a in charges for b in charges]
    f, r, u, eta = _spt_tables(g, alpha)
    action = {k: tuple(g.conj(a, k) for a in charges) for k in g.elements()}
    return GxTheory(g, charges, g.identity, fusion, f, r, u, eta, action,
                    metadata={"name": "spt"})


def glue_spt(theory, alpha):
    """Entrywise product of a theory with the SPT data at matching grades."""
    validate_cocycle(alpha, degree=3)
    meta = dict(theory.metadata)
    meta["name"] = meta.get("name", "theory") + "+spt"
    return stack_coefficients(theory, alpha, metadata=meta)


def stack_coefficients(theory, x, **changes):
    """``theory`` with F, U and eta times the SPT symbols of the unvalidated
    U(1) 3-cochain ``x`` at their grades, and ``changes`` as in ``replace``.  This
    is how twist coefficients act (arXiv:1410.4540)."""
    spt_f, _, spt_u, spt_eta = _spt_tables(theory.group, x)
    gr = theory.grades
    f = {k: v * spt_f[(gr[k[0]], gr[k[1]], gr[k[2]],
                       gr[k[3]], gr[k[4]], gr[k[5]])]
         for k, v in theory.f_entries().items()}
    u = {k: v * spt_u[(k[0], gr[k[1]], gr[k[2]], gr[k[3]])]
         for k, v in theory.u_entries().items()}
    eta = {k: v * spt_eta[(gr[k[0]], k[1], k[2])]
           for k, v in theory.eta_entries().items()}
    return theory.replace(f=f, u=u, eta=eta, **changes)


# ---------------------------------------------------------------------------
# trivial extensions


def trivial_extension(c0, group):
    """Extend an identity-graded theory by ``group`` with trivial action.

    Charges are pairs (a, g) indexed as a + g * len(c0); every symbol is
    grade-independent and equal to the corresponding symbol of ``c0``.
    """
    if c0.group.order != 1:
        raise InvalidInput("base theory must be identity-graded")
    n0 = c0.num_charges
    g = group

    def idx(a, gg):
        return a + gg * n0

    grades = [0] * (n0 * g.order)
    for gg in g.elements():
        for a in range(n0):
            grades[idx(a, gg)] = gg
    fusion = []
    for a, b, c in c0.fusion_triples():
        for gg in g.elements():
            for hh in g.elements():
                fusion.append((idx(a, gg), idx(b, hh), idx(c, g.op(gg, hh))))
    f = {}
    for (a, b, c, d, e, ff), val in c0.f_entries().items():
        for gg in g.elements():
            for hh in g.elements():
                for kk in g.elements():
                    f[(idx(a, gg), idx(b, hh), idx(c, kk),
                       idx(d, g.prod(gg, hh, kk)), idx(e, g.op(gg, hh)),
                       idx(ff, g.op(hh, kk)))] = val
    r = {}
    for (a, b, c), val in c0.r_entries().items():
        for gg in g.elements():
            for hh in g.elements():
                r[(idx(a, gg), idx(b, hh), idx(c, g.op(gg, hh)))] = val
    u = {}
    for a, b, c in c0.fusion_triples():
        for gg in g.elements():
            for hh in g.elements():
                key_c = idx(c, g.op(gg, hh))
                for kk in g.elements():
                    u[(kk, idx(a, gg), idx(b, hh), key_c)] = ONE
    eta = {}
    for x in range(n0 * g.order):
        for gg in g.elements():
            for hh in g.elements():
                eta[(x, gg, hh)] = ONE
    action = {}
    for kk in g.elements():
        perm = [0] * (n0 * g.order)
        for gg in g.elements():
            for a in range(n0):
                perm[idx(a, gg)] = idx(a, g.conj(gg, kk))
        action[kk] = tuple(perm)
    meta = {"name": (c0.metadata.get("name", "c0")) + f"_x_{g.name or 'G'}"}
    return GxTheory(g, grades, c0.vacuum, fusion, f, r, u, eta, action,
                    metadata=meta)
