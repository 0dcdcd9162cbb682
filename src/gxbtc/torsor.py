"""Generation of new G-crossed data from a 2-cocycle and a 3-cochain.

The central entry point is :func:`apply_torsor`, which rebuilds every
symbol table of a theory from a fusion-twisting 2-cocycle ``t`` valued in
the abelian identity-sector charges and phase coefficients ``x`` on group
triples.  The relative obstruction measures whether coefficients exist
making the four-defect pentagon close; when its class is trivial,
:func:`solve_cocycleator` produces canonical coefficients.

The twisted F and U tables, the largest, are evaluated as arrays on the
base theory's numpy index (:func:`gxbtc.consistency.theory_index`), bit
for bit as the scalar formulas kept in ``tests/oracles.py``; the R and eta
tables, a small share of a twist, stay loops.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import consistency
from .category import GxTheory, abelian_subgroup, fusion_violations, monodromy
from .consistency import cconj, cmul, cquot
from .constructions import stack_coefficients
from .errors import (
    InadmissibleTuple,
    InvalidInput,
    NotACocycle,
    RestrictionMismatch,
    RootOrderTooSmall,
    SnapFailure,
)
from .groups import (
    DEFAULT_TOL,
    Cochain,
    U1Module,
    cohomologous,
    cohomology,
    is_cocycle,
    phase_to_json,
)


def default_group_root_order(group):
    """Root order of U(1) cochains on ``group`` alone: lcm(|G|, 8)."""
    return math.lcm(group.order, 8)


def default_root_order(theory):
    """Root order for a theory: the group default, times its abelian charges."""
    module = abelian_subgroup(theory)
    return math.lcm(default_group_root_order(theory.group), max(module.order, 1))


@dataclass
class TorsorInput:
    """Pairing of the fusion-twisting 2-cocycle and phase coefficients."""

    t: Cochain
    x: Cochain


def validate_two_cocycle(theory, t):
    """Check t is a normalized 2-cochain in A with twisted coboundary 1."""
    if t.degree != 2 or t.module.kind != "charges":
        raise InvalidInput("fusion twist must be a 2-cochain valued in abelian charges")
    if t.group.mult != theory.group.mult:
        raise InvalidInput("fusion twist lives on the wrong group")
    for args in t.support():
        t.module.validate_element(t(*args))
    if not is_cocycle(t):
        raise NotACocycle("fusion twist is not a twisted 2-cocycle")
    return t


def trivial_coefficients(theory, root_order=None):
    order = root_order or default_root_order(theory)
    return Cochain.identity(theory.group, 3, U1Module(order))


def charge_transfer(theory, t, g, h):
    """Abelian charge moved through a braid of the twist line."""
    grp = theory.group
    hgh = grp.prod(grp.inverse(h), g, h)
    return theory.translate(theory.dual(t(g, h)), t(h, hgh))


@dataclass(frozen=True, eq=False)
class Twist:
    """A fusion twist ``t`` of ``theory``, validated once, and the data it fixes.

    Constructing one checks that ``t`` is a normalized twisted 2-cocycle in
    the abelian charges (:func:`validate_two_cocycle`).  The charge-transfer
    table, the twisted fusion and action, and the twisted theory at x = 1 do
    not depend on the coefficients; each is derived on first use, once, and
    read from here.  ``tol`` bounds the eta restriction of :func:`torsored_eta`.
    """

    theory: GxTheory
    t: Cochain
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        validate_two_cocycle(self.theory, self.t)

    @cached_property
    def transfer(self):
        """(g, h) -> :func:`charge_transfer` of the twist line."""
        grp = self.theory.group
        return {(g, h): charge_transfer(self.theory, self.t, g, h)
                for g in grp.elements() for h in grp.elements()}

    @cached_property
    def fusion(self):
        """Sorted twisted triples and their outcome map (see torsored_fusion)."""
        return torsored_fusion(self.theory, self.t)

    @cached_property
    def action(self):
        """The twisted symmetry action (see torsored_action)."""
        return torsored_action(self)

    @cached_property
    def unit(self):
        """The twisted theory at x = 1; see :func:`stack_coefficients` for x."""
        theory, action = self.theory, self.action  # the action is checked first
        return GxTheory(theory.group, theory.grades, theory.vacuum,
                        self.fusion[0], torsored_f(self), torsored_r(self),
                        torsored_u(self), torsored_eta(self), action,
                        metadata=theory.metadata)


# ---------------------------------------------------------------------------
# twisted tables


def torsored_fusion(theory, t):
    """Fusion of the twisted theory; associativity is re-verified.

    ``t`` must already be validated; :class:`Twist` calls this once per
    twist.  Returns the sorted triples and the outcome map (a, b) -> [c, ...]
    built from them.  The check is sparse: O(n^3 k^2) dictionary operations
    for n charges with at most k fusion outcomes per pair (see
    :func:`gxbtc.category.fusion_violations`).
    """
    triples = sorted({
        (a, b, theory.translate(t(theory.grade(a), theory.grade(b)), c0))
        for a, b, c0 in theory.fusion_triples()})
    outcomes = {}
    for a, b, c in triples:
        outcomes.setdefault((a, b), []).append(c)
    for a, b, c, d in fusion_violations(theory.num_charges, outcomes):
        raise NotACocycle(
            f"twisted fusion is not associative at ({a},{b},{c};{d})")
    return triples, outcomes


def torsored_action(twist):
    """Symmetry action on the twisted theory.

    The identity-graded restriction is untouched; defect charges are moved
    by the transported inverse charge transfer.  Compatibility with twisted
    fusion, the homomorphism property, and crossed commutativity are all
    verified before returning.
    """
    theory = twist.theory
    grp = theory.group
    q = twist.transfer
    action = {}
    for k in grp.elements():
        kbar = grp.inverse(k)
        perm = []
        for a in theory.charges():
            g = theory.grade(a)
            shift = theory.act(k, theory.dual(q[(g, kbar)]))
            moved = theory.translate(shift, theory.act(k, a))
            # equivalent closed form via the conjugated transfer
            alt = theory.translate(q[(grp.conj(g, k), k)], theory.act(k, a))
            if moved != alt:
                raise InvalidInput(
                    "the two closed forms of the twisted action disagree; "
                    "the twist is not a valid cocycle for this action")
            perm.append(moved)
        action[k] = tuple(perm)
    triples = set(twist.fusion[0])
    ident = grp.identity
    for a in theory.charges():
        if theory.grade(a) == ident:
            for k in grp.elements():
                if action[k][a] != theory.act(k, a):
                    raise InvalidInput("twisted action moved an untwisted charge")
    for k in grp.elements():
        for a, b, c in triples:
            if (action[k][a], action[k][b], action[k][c]) not in triples:
                raise InvalidInput("twisted action breaks twisted fusion")
        for h in grp.elements():
            combo = tuple(action[h][action[k][a]] for a in theory.charges())
            if combo != action[grp.op(h, k)]:
                raise InvalidInput("twisted action is not a homomorphism")
    for a, b, c in triples:
        g = theory.grade(a)
        if (action[g][b], a, c) not in triples:
            raise InvalidInput("twisted action breaks crossed commutativity")
    return action


class _Lookups:
    """Base-theory symbols over arrays of keys, for the twisted tables.

    Lookups are made in the scalar formula's order, and a missing key reads
    as 0.  :meth:`check` then raises the InadmissibleTuple that the scalar
    formula raises first: at the first row with a missing key, for its first
    missing lookup.
    """

    def __init__(self, index):
        self.index = index
        self.missing = None  # (row, key text) of the first missing lookup

    def _get(self, name, table, labels):
        pos = table.at(*labels)
        rows = np.flatnonzero(pos == table.absent)
        if len(rows) and (self.missing is None or rows[0] < self.missing[0]):
            row = int(rows[0])
            self.missing = row, f"{name}{tuple(int(x[row]) for x in labels)}"
        return table.re[pos], table.im[pos]

    def f(self, *labels):
        return self._get("F", self.index.f, labels)

    def r(self, *labels):
        return self._get("R", self.index.r, labels)

    def u(self, *labels):
        return self._get("U", self.index.u, labels)

    def f_line(self, a, b, c):
        tr = self.index.translate
        e = tr(a, b)
        f = tr(b, c)
        return self.f(a, b, c, tr(e, c), e, f)

    def r_line(self, a, b):
        return self.r(a, b, self.index.translate(a, b))

    def u_line(self, k, a, b):
        return self.u(k, a, b, self.index.translate(a, b))

    def check(self):
        if self.missing is not None:
            raise InadmissibleTuple(f"{self.missing[1]} is not an admissible tuple")


def _group_table(grp, value):
    """``value(g, h)`` as an array indexed [g, h]."""
    return np.array([[value(g, h) for h in grp.elements()]
                     for g in grp.elements()], dtype=np.int64)


def _table_of(keys, value):
    """{key: complex} from key columns and (re, im) arrays, in row order."""
    values = np.empty(len(value[0]), dtype=complex)
    values.real, values.imag = value
    return dict(zip(zip(*(x.tolist() for x in keys)), values.tolist()))


def torsored_f(twist):
    """F table of the twisted theory at x = 1, keyed on twisted fusion tuples.

    Keys come in the order of the loops over the twisted triples (a, b, e),
    then c, then d in e (x) c and f in b (x) c with N(a, f, d).  Each value
    is a product of seven base symbols, evaluated for all keys at once on
    the base theory's index (:func:`gxbtc.consistency.theory_index`).
    """
    theory = twist.theory
    ix = consistency.theory_index(theory)
    fusion = consistency.FusionIndex(ix.n, twist.fusion[0])
    rows = np.repeat(np.arange(len(fusion.triples)), ix.n)
    a, b, e = fusion.triples[rows].T
    c = np.tile(np.arange(ix.n), len(fusion.triples))
    a, b, c, e, d = fusion.expand(e, c, a, b, c, e)
    a, b, c, d, e, f = fusion.expand(b, c, a, b, c, d, e)
    keep = fusion.admissible(a, f, d)
    a, b, c, d, e, f = (x[keep] for x in (a, b, c, d, e, f))

    t = _group_table(theory.group, twist.t)
    mult, act, dual, tr = ix.mult, ix.act, ix.dual, ix.translate
    g, h, k = ix.grade[a], ix.grade[b], ix.grade[c]
    t_gh = t[g, h]
    t_hk = t[h, k]
    t_gh_k = t[mult[g, h], k]
    t_g_hk = t[g, mult[h, k]]
    gt_hk = act[g, t_hk]
    e1 = tr(dual[t_gh], e)
    f1 = tr(dual[t_hk], f)
    a1 = tr(gt_hk, a)
    d1 = tr(dual[t_gh_k], d)
    d2 = tr(dual[t_gh], d1)
    d3 = tr(dual[t_g_hk], d)
    look = _Lookups(ix)
    value = look.f(t_gh, e1, c, d1, e, d2)
    value = cmul(value, look.f(a, b, c, d2, e1, f1))
    value = cmul(value, cconj(look.f(
        t_gh_k, t_gh, d2, d, ix.fuse_abelian(t_gh_k, t_gh), d1)))
    value = cmul(value, look.f(
        t_g_hk, gt_hk, d2, d, ix.fuse_abelian(t_g_hk, gt_hk), tr(gt_hk, d2)))
    value = cmul(value, cconj(look.f(gt_hk, a, f1, d3, a1, d2)))
    value = cmul(value, cconj(look.r(gt_hk, a, a1)))
    value = cmul(value, look.f(a, t_hk, f1, d3, a1, f))
    look.check()
    return _table_of((a, b, c, d, e, f), value)


def torsored_r(twist):
    """R table of the twisted theory."""
    theory, t, q = twist.theory, twist.t, twist.transfer
    grp = theory.group
    dual = theory.dual
    tr = theory.translate
    table = {}
    for a, b, c in twist.fusion[0]:
        g, h = theory.grade(a), theory.grade(b)
        hgh = grp.prod(grp.inverse(h), g, h)
        q_gh = q[(g, h)]
        t_gh = t(g, h)
        a1 = tr(dual(q_gh), a)
        c1 = tr(dual(t(h, hgh)), c)
        c2 = tr(dual(t_gh), c)
        value = theory.r_symbol(a1, b, c1)
        value = value * theory.f_symbol(
            t_gh, q_gh, c1, c, theory.fuse_abelian(t_gh, q_gh), tr(q_gh, c1))
        value = value * theory.f_symbol(q_gh, a1, b, c2, a, c1).conjugate()
        table[(a, b, c)] = value
    return table


def torsored_u(twist):
    """Sheet-over-vertex table of the twisted theory at x = 1.

    Keys are (k, a, b, c) for each group element k, then each twisted
    triple (a, b, c).  Each value is a product of seven base symbols times
    a quotient of F symbols on abelian lines, evaluated for all keys at
    once on the base theory's index.
    """
    theory = twist.theory
    ix = consistency.theory_index(theory)
    triples = np.array(twist.fusion[0], dtype=np.int64).reshape(-1, 3)
    k = np.repeat(np.arange(ix.order), len(triples))
    a, b, c = np.tile(triples.T, ix.order)

    t = _group_table(theory.group, twist.t)
    q = _group_table(theory.group, lambda g, h: twist.transfer[(g, h)])
    mult, act, dual, tr = ix.mult, ix.act, ix.dual, ix.translate
    g, h = ix.grade[a], ix.grade[b]
    kbar = ix.inv[k]
    kgk = mult[mult[kbar, g], k]
    khk = mult[mult[kbar, h], k]
    gh = mult[g, h]
    gk = mult[g, k]
    t_gh = t[g, h]
    t_g_hk = t[g, mult[h, k]]
    kt = act[k, t[kgk, khk]]
    gt_hk = act[g, t[h, k]]
    gq_hk = act[g, q[h, k]]
    a1 = tr(dual[q[g, k]], a)
    b1 = tr(dual[q[h, k]], b)
    c1 = tr(dual[q[gh, k]], c)
    c2 = tr(dual[t_gh], c)
    c3 = tr(dual[kt], c1)
    c4 = tr(act[g, dual[q[h, k]]], c2)
    qa = tr(gq_hk, a)
    look = _Lookups(ix)
    value = look.u(k, a1, b1, c3)
    value = cmul(value, look.u(k, kt, c3, c1))
    value = cmul(value, look.u_line(g, gt_hk, gq_hk))
    value = cmul(value, cconj(look.r_line(gq_hk, a)))
    value = cmul(value, cconj(look.f(q[g, k], a1, b1, c4, a, c3)))
    value = cmul(value, cconj(look.f(gq_hk, a, b1, c2, qa, c4)))
    value = cmul(value, look.f(a, q[h, k], b1, c2, qa, b))
    num = cmul(cmul(cmul(
        look.f_line(ix.fuse_abelian(t[gk, khk], t[g, k]), q[g, k], c3),
        look.f_line(t_g_hk, gt_hk, gq_hk)),
        look.f_line(ix.fuse_abelian(gt_hk, t_g_hk), gq_hk, c4)),
        look.f_line(t[gh, k], t_gh, c2))
    den = cmul(cmul(
        look.f_line(t[k, mult[mult[kbar, gh], k]], kt, c3),
        look.f_line(t[gk, khk], t[g, k], q[g, k])),
        look.f_line(t[gh, k], q[gh, k], c1))
    look.check()
    return _table_of((k, a, b, c), cmul(value, cquot(num, den)))


def _torsored_eta_value(theory, t, q, xc, g, h):
    grp = theory.group
    k = theory.grade(xc)
    gh = grp.op(g, h)
    gkg = grp.prod(grp.inverse(g), k, g)
    hgkgh = grp.prod(grp.inverse(h), gkg, h)
    dual = theory.dual
    tr = theory.translate
    f3 = theory.f_line
    t_gh = t(g, h)
    x1 = tr(dual(q[(k, gh)]), xc)
    x2 = tr(dual(q[(k, g)]), xc)
    x3 = tr(t_gh, x1)
    gt = theory.act(g, t(gkg, h))
    gq = theory.act(g, q[(gkg, h)])
    value = theory.eta_symbol(x1, g, h)
    value = value * theory.u_symbol(g, gq, x1, tr(gq, x1))
    value = value / theory.u_line(g, gt, gq)
    value = value * theory.r_line(theory.act(k, t_gh), xc)
    value = value * theory.r_line(x1, t_gh)
    num = (f3(t(grp.op(k, g), h), t(k, g), q[(k, g)])
           * f3(t(g, grp.op(gkg, h)), gt, gq)
           * f3(t(gh, hgkgh), t_gh, x1)
           * f3(t(k, gh), q[(k, gh)], x3))
    den = (f3(t(k, gh), theory.act(k, t_gh), xc)
           * f3(theory.fuse_abelian(t(grp.op(k, g), h), t(k, g)), q[(k, g)], x2)
           * f3(theory.fuse_abelian(t(g, grp.op(gkg, h)), gt), gq, x1)
           * f3(q[(k, gh)], x1, t_gh))
    return value * (num / den)


def torsored_eta(twist):
    """Local projective phases of the twisted theory at x = 1.

    Identity-graded charges take the closed form eta * monodromy with the
    twist value; the general contraction is still evaluated there and must
    agree within ``twist.tol``.
    """
    theory, t, q = twist.theory, twist.t, twist.transfer
    grp = theory.group
    ident = grp.identity
    table = {}
    for xc in theory.charges():
        trivially_graded = theory.grade(xc) == ident
        for g in grp.elements():
            for h in grp.elements():
                general = _torsored_eta_value(theory, t, q, xc, g, h)
                if trivially_graded:
                    closed = theory.eta_symbol(xc, g, h) * monodromy(
                        theory, xc, t(g, h))
                    if abs(general - closed) > twist.tol:
                        raise RestrictionMismatch(
                            f"eta restriction failed at ({xc},{g},{h}): "
                            f"{general} vs {closed}")
                    table[(xc, g, h)] = closed
                else:
                    table[(xc, g, h)] = general
    return table


# ---------------------------------------------------------------------------
# obstruction


def _require_torsorable(theory, tol):
    worst = consistency.base_theory_torsorable(theory, tol)
    if worst > tol:
        raise InvalidInput(
            f"theory is not consistent enough to twist (residual {worst})")


def relative_obstruction(theory, t, root_order=None, tol=DEFAULT_TOL):
    """Failure phase of the four-defect pentagon induced by the twist.

    Returns a normalized U(1) 4-cochain, verified to be closed.
    """
    twist = Twist(theory, t)
    _require_torsorable(theory, tol)
    return _obstruction(twist, root_order or default_root_order(theory), tol)


def _obstruction(twist, order, tol):
    """Body of :func:`relative_obstruction` for a validated twist."""
    theory, t = twist.theory, twist.t
    grp = theory.group
    f3 = theory.f_line
    u2 = theory.u_line

    def value(g, h, k, l):
        gh = grp.op(g, h)
        hk = grp.op(h, k)
        kl = grp.op(k, l)
        hkl = grp.op(h, kl)
        ghk = grp.op(g, hk)
        t_gh = t(g, h)
        ght_kl = theory.act(gh, t(k, l))
        val = theory.eta_symbol(ght_kl, g, h)
        val = val * u2(g, theory.act(g, t(h, kl)), ght_kl)
        val = val / u2(g, theory.act(g, t(hk, l)), theory.act(g, t(h, k)))
        val = val * theory.r_line(ght_kl, t_gh)
        val = val * (f3(t(gh, kl), t_gh, ght_kl) / f3(t(gh, kl), ght_kl, t_gh))
        val = val * (f3(t(g, hkl), theory.act(g, t(hk, l)), theory.act(g, t(h, k)))
                     / f3(t(g, hkl), theory.act(g, t(h, kl)), ght_kl))
        val = val * (f3(t(ghk, l), t(gh, k), t_gh)
                     / f3(t(ghk, l), t(g, hk), theory.act(g, t(h, k))))
        return val

    entries = {}
    for args in itertools.product(grp.elements(), repeat=4):
        entries[args] = value(*args)
    cochain = Cochain(grp, 4, U1Module(order), entries)
    if not is_cocycle(cochain, max(tol, 1e-7)):
        raise NotACocycle("relative obstruction came out non-closed; "
                          "the input theory is inconsistent")
    return cochain


def solve_cocycleator(theory, t, root_order=None, tol=DEFAULT_TOL):
    """Canonical coefficients with coboundary inverse to the obstruction.

    Returns None when the obstruction class is nontrivial.  The canonical
    choice pins all free Smith-basis coordinates to zero, so identical
    inputs give identical coefficients.
    """
    orr = relative_obstruction(theory, t, root_order, tol)
    return solve_coefficients_for(orr)


def solve_coefficients_for(obstruction):
    """Solve d(x) = obstruction^{-1} for a U(1) 4-cochain, if possible."""
    target = obstruction.inverse()
    ident = Cochain.identity(obstruction.group, 4, obstruction.module)
    return cohomologous(target, ident)


# ---------------------------------------------------------------------------
# assembly


def apply_torsor(theory, t, x=None, tol=DEFAULT_TOL, root_order=None,
                 check_preconditions=True):
    """Assemble the fully twisted theory.

    ``x`` defaults to the canonical solution of the four-defect pentagon
    condition; pass explicit coefficients (for example a 3-cocycle times a
    known solution) to land elsewhere on the coefficient torsor.  The
    resulting obstruction data is recorded in the metadata.
    """
    twist = Twist(theory, t, tol)
    if check_preconditions:
        _require_torsorable(theory, tol)
    order = root_order or default_root_order(theory)
    orr = _obstruction(twist, order, tol)
    if x is None:
        x = solve_coefficients_for(orr)
        if x is None:
            raise NotACocycle(
                "the relative obstruction class is nontrivial; "
                "no coefficients make the twisted theory consistent")

    def base_obstruction():
        return consistency.defectification_obstruction(theory, tol, root_order=order)

    return _assemble(twist, orr, x, base_obstruction)


def _assemble(twist, orr, x, base_obstruction):
    """Twisted theory of ``twist`` (relative obstruction ``orr``) at ``x``:
    ``twist.unit`` with ``x`` stacked on.  ``base_obstruction()`` gives the
    untwisted defectification obstruction; it is called after ``twist.unit``.
    """
    unit = twist.unit
    hatted = x.coboundary().combine(orr).combine(base_obstruction())
    metadata = dict(twist.theory.metadata)
    metadata["name"] = metadata.get("name", "theory") + "~twisted"
    metadata["obstruction"] = {
        "entries": [{"args": list(args), "value": phase_to_json(hatted(*args))}
                    for args in sorted(hatted.entries)],
        "trivial_class": _is_trivial_class(hatted),
    }
    return stack_coefficients(unit, x, metadata=metadata)


@dataclass(frozen=True)
class Extension:
    """One (fractionalization, defectification) pair of :func:`enumerate_extensions`.

    ``fractionalization`` and ``defectification`` index the classes of
    H^2(G, A) and H^3(G, U(1)); ``t`` and ``alpha`` are their
    representatives.  ``theory`` is the twist of the base by ``t`` with
    coefficients alpha times the canonical solution, or None when the
    relative obstruction of ``t`` is nontrivial.
    """

    fractionalization: int
    defectification: int
    t: Cochain
    alpha: Cochain
    theory: GxTheory | None


def enumerate_extensions(base, root_order=None, tol=DEFAULT_TOL):
    """Twist ``base`` through every fractionalization and defectification class.

    Returns the H^2(G, A) and H^3(G, U(1)) results and the extensions in
    (fractionalization, defectification) order.  Each fractionalization
    class has one :class:`Twist`, so it validates its twist and builds its
    relative obstruction and its tables at x = 1 once; each alpha only
    stacks its coefficients on.  The base's defectification obstruction is
    built once per call.
    """
    grp = base.group
    order = root_order or default_root_order(base)
    h2 = cohomology(grp, 2, abelian_subgroup(base))
    h3 = cohomology(grp, 3, U1Module(order))
    alphas = h3.all_classes()
    _require_torsorable(base, tol)

    @functools.cache
    def base_obstruction():
        return consistency.defectification_obstruction(base, tol, root_order=order)

    extensions = []
    for it, t in enumerate(h2.all_classes()):
        twist = Twist(base, t, tol)
        orr = _obstruction(twist, order, tol)
        base_x = solve_coefficients_for(orr)
        for ia, alpha in enumerate(alphas):
            theory = None
            if base_x is not None:
                theory = _assemble(twist, orr, base_x.combine(alpha),
                                   base_obstruction)
            extensions.append(Extension(it, ia, t, alpha, theory))
    return h2, h3, extensions


def _is_trivial_class(cochain):
    ident = Cochain.identity(cochain.group, cochain.degree, cochain.module)
    try:
        return cohomologous(cochain, ident) is not None
    except (SnapFailure, RootOrderTooSmall):
        # the class cannot be decided exactly at this root order
        return None
