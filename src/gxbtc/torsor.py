"""Generation of new G-crossed data from a 2-cocycle and a 3-cochain.

The central entry point is :func:`apply_torsor`, which rebuilds every
symbol table of a theory from a fusion-twisting 2-cocycle ``t`` valued in
the abelian identity-sector charges and phase coefficients ``x`` on group
triples.  The relative obstruction measures whether coefficients exist
making the four-defect pentagon close; when its class is trivial,
:func:`solve_cocycleator` produces canonical coefficients.

The twisted F, R, U and eta tables and the relative obstruction are
evaluated as arrays on the base theory's numpy index
(:func:`gxbtc.consistency.theory_index`), bit for bit as the scalar
formulas kept in ``tests/oracles.py``.  The obstruction's phases are
snapped to a U(1) cochain once; :func:`_twisted_obstruction` is the one
place where phases off the roots of unity are kept as floats.  As in
``consistency``, the functions that build arrays import numpy themselves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

from . import consistency
from .category import GxTheory, abelian_subgroup, action_violations, fusion_violations
from .consistency import cconj, cmul, cquot
from .constructions import stack_coefficients
from .errors import (
    InadmissibleTuple,
    InvalidInput,
    NotACocycle,
    RestrictionMismatch,
    SnapFailure,
)
from .groups import (
    DEFAULT_TOL,
    Cochain,
    U1Module,
    cohomologous,
    cohomology,
    is_cocycle,
    phase_encoder,
)


def default_group_root_order(group):
    """Root order of U(1) cochains on ``group`` alone: lcm(|G|, 8)."""
    return math.lcm(group.order, 8)


def default_root_order(theory):
    """Root order for a theory: the group default, times its abelian charges."""
    module = abelian_subgroup(theory)
    return math.lcm(default_group_root_order(theory.group), max(module.order, 1))


def root_module(theory, root_order=None):
    """U(1) at ``root_order``; None, and only None, means the default."""
    return U1Module(default_root_order(theory) if root_order is None else root_order)


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
    if not is_cocycle(t):
        raise NotACocycle("fusion twist is not a twisted 2-cocycle")
    return t


def trivial_coefficients(theory, root_order=None):
    return Cochain.identity(theory.group, 3, root_module(theory, root_order))


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
        """The twisted theory at x = 1; see :func:`stack_coefficients` for x.

        Its four tables are array kernels on the base theory's index, so
        reading it loads numpy; of the commands only ``torsor`` and
        ``enumerate-extensions`` read it.
        """
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
    by the transported inverse charge transfer.  Before returning, the two
    closed forms of each image are compared, the untwisted charges are
    checked to move as before, the action rules of
    :func:`gxbtc.category.action_violations` are checked against the
    twisted fusion (the first broken one raises, its message prefixed by
    "twisted"), and then crossed commutativity.
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
    ident = grp.identity
    for a in theory.charges():
        if theory.grade(a) == ident:
            for k in grp.elements():
                if action[k][a] != theory.act(k, a):
                    raise InvalidInput("twisted action moved an untwisted charge")
    triples = twist.fusion[0]
    for message in action_violations(grp, theory.grades, triples, action):
        raise InvalidInput(f"twisted {message}")
    kept = set(triples)
    for a, b, c in triples:
        if (action[theory.grade(a)][b], a, c) not in kept:
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
        import numpy as np
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

    def eta(self, *labels):
        return self._get("eta", self.index.eta, labels)

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
    import numpy as np
    return np.array([[value(g, h) for h in grp.elements()]
                     for g in grp.elements()], dtype=np.int64)


def _table_of(keys, value):
    """{key: complex} from key columns and (re, im) arrays, in row order."""
    import numpy as np
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
    import numpy as np
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
    """R table of the twisted theory, keyed on the twisted triples in order.

    Each value is a base R symbol times two F symbols on the twist line,
    evaluated for all triples at once on the base theory's index.
    """
    import numpy as np
    theory = twist.theory
    ix = consistency.theory_index(theory)
    a, b, c = np.array(twist.fusion[0], dtype=np.int64).reshape(-1, 3).T

    t = _group_table(theory.group, twist.t)
    q = _group_table(theory.group, lambda g, h: twist.transfer[(g, h)])
    mult, dual, tr = ix.mult, ix.dual, ix.translate
    g, h = ix.grade[a], ix.grade[b]
    hgh = mult[mult[ix.inv[h], g], h]
    q_gh = q[g, h]
    t_gh = t[g, h]
    a1 = tr(dual[q_gh], a)
    c1 = tr(dual[t[h, hgh]], c)
    c2 = tr(dual[t_gh], c)
    look = _Lookups(ix)
    value = look.r(a1, b, c1)
    value = cmul(value, look.f(
        t_gh, q_gh, c1, c, ix.fuse_abelian(t_gh, q_gh), tr(q_gh, c1)))
    value = cmul(value, cconj(look.f(q_gh, a1, b, c2, a, c1)))
    look.check()
    return _table_of((a, b, c), value)


def torsored_u(twist):
    """Sheet-over-vertex table of the twisted theory at x = 1.

    Keys are (k, a, b, c) for each group element k, then each twisted
    triple (a, b, c).  Each value is a product of seven base symbols times
    a quotient of F symbols on abelian lines, evaluated for all keys at
    once on the base theory's index.
    """
    import numpy as np
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


def torsored_eta(twist):
    """Local projective phases of the twisted theory at x = 1.

    Keys are (x, g, h) for each charge x, then g, then h.  The general
    contraction, eta times U, R and F symbols on the twist line, is
    evaluated for all keys at once on the base theory's index.
    Identity-graded charges take the closed form eta * R^{xy} R^{yx} with
    y = t(g, h); the contraction must agree with it there within
    ``twist.tol``.  Errors come as in the loop over the keys: at the first
    key with a missing base entry or a disagreement, and a missing entry
    first at that key.
    """
    import numpy as np
    theory = twist.theory
    ix = consistency.theory_index(theory)
    x, g, h = np.indices((ix.n, ix.order, ix.order)).reshape(3, -1)

    t = _group_table(theory.group, twist.t)
    q = _group_table(theory.group, lambda g, h: twist.transfer[(g, h)])
    mult, inv, act, dual, tr = ix.mult, ix.inv, ix.act, ix.dual, ix.translate
    k = ix.grade[x]
    gh = mult[g, h]
    kg = mult[k, g]
    gkg = mult[mult[inv[g], k], g]
    gkg_h = mult[gkg, h]
    t_gh = t[g, h]
    x1 = tr(dual[q[k, gh]], x)
    x2 = tr(dual[q[k, g]], x)
    x3 = tr(t_gh, x1)
    gt = act[g, t[gkg, h]]
    gq = act[g, q[gkg, h]]
    look = _Lookups(ix)
    value = look.eta(x1, g, h)
    value = cmul(value, look.u_line(g, gq, x1))
    value = cquot(value, look.u_line(g, gt, gq))
    value = cmul(value, look.r_line(act[k, t_gh], x))
    value = cmul(value, look.r_line(x1, t_gh))
    num = cmul(cmul(cmul(
        look.f_line(t[kg, h], t[k, g], q[k, g]),
        look.f_line(t[g, gkg_h], gt, gq)),
        look.f_line(t[gh, mult[mult[inv[h], gkg], h]], t_gh, x1)),
        look.f_line(t[k, gh], q[k, gh], x3))
    den = cmul(cmul(cmul(
        look.f_line(t[k, gh], act[k, t_gh], x),
        look.f_line(ix.fuse_abelian(t[kg, h], t[k, g]), q[k, g], x2)),
        look.f_line(ix.fuse_abelian(t[g, gkg_h], gt), gq, x1)),
        look.f_line(q[k, gh], x1, t_gh))
    general = cmul(value, cquot(num, den))

    rows = np.flatnonzero(k == theory.group.identity)
    xs, y = x[rows], t_gh[rows]
    c = tr(xs, y)
    # the contraction has looked up each entry of the closed form at the
    # same key (x1 = x there, and x (x) y = y (x) x, which the twisted action
    # checks), so a missing entry is recorded by ``look`` at its key
    closed = cmul(ix.eta(xs, g[rows], h[rows]), cmul(ix.r(xs, y, c), ix.r(y, xs, c)))
    general_r, general_i = general[0][rows], general[1][rows]
    far = np.flatnonzero(
        np.hypot(general_r - closed[0], general_i - closed[1]) > twist.tol)
    if len(far) and (look.missing is None or rows[far[0]] < look.missing[0]):
        i = int(far[0])
        key = tuple(int(col[rows[i]]) for col in (x, g, h))
        raise RestrictionMismatch(
            f"eta restriction failed at ({key[0]},{key[1]},{key[2]}): "
            f"{complex(general_r[i], general_i[i])} vs "
            f"{complex(closed[0][i], closed[1][i])}")
    look.check()
    general[0][rows], general[1][rows] = closed
    return _table_of((x, g, h), general)


# ---------------------------------------------------------------------------
# obstruction


def _require_torsorable(theory, tol):
    worst = consistency.base_theory_torsorable(theory)
    if worst > tol:
        raise InvalidInput(
            f"theory is not consistent enough to twist (residual {worst})")


def relative_obstruction(theory, t, root_order=None, tol=DEFAULT_TOL):
    """Failure phase of the four-defect pentagon induced by the twist.

    Returns a normalized U(1) 4-cochain, verified to be closed.
    """
    module = root_module(theory, root_order)
    twist = Twist(theory, t)
    _require_torsorable(theory, tol)
    return _obstruction_cochain(theory.group, module, _obstruction(twist))


def _obstruction(twist):
    """Phases {(g, h, k, l): complex} of :func:`relative_obstruction` over
    G^4 in product order, for a validated twist, in one pass on the base's
    index."""
    import numpy as np
    theory = twist.theory
    ix = consistency.theory_index(theory)
    t = _group_table(theory.group, twist.t)
    mult, act = ix.mult, ix.act
    g, h, k, l = np.indices((ix.order,) * 4).reshape(4, -1)
    gh, hk, kl = mult[g, h], mult[h, k], mult[k, l]
    t_gh = t[g, h]
    ght_kl = act[gh, t[k, l]]
    gt_h_kl = act[g, t[h, kl]]
    gt_hk_l = act[g, t[hk, l]]
    gt_hk = act[g, t[h, k]]
    look = _Lookups(ix)
    val = look.eta(ght_kl, g, h)
    val = cmul(val, look.u_line(g, gt_h_kl, ght_kl))
    val = cquot(val, look.u_line(g, gt_hk_l, gt_hk))
    val = cmul(val, look.r_line(ght_kl, t_gh))
    val = cmul(val, cquot(look.f_line(t[gh, kl], t_gh, ght_kl),
                          look.f_line(t[gh, kl], ght_kl, t_gh)))
    val = cmul(val, cquot(look.f_line(t[g, mult[h, kl]], gt_hk_l, gt_hk),
                          look.f_line(t[g, mult[h, kl]], gt_h_kl, ght_kl)))
    val = cmul(val, cquot(look.f_line(t[mult[g, hk], l], t[gh, k], t_gh),
                          look.f_line(t[mult[g, hk], l], t[g, hk], gt_hk)))
    look.check()
    return _table_of((g, h, k, l), val)


def _obstruction_cochain(group, module, phases):
    """Phases over G^4 as a U(1) 4-cochain, checked closed."""
    cochain = Cochain(group, 4, module, phases)
    if not is_cocycle(cochain):
        raise NotACocycle("an obstruction came out non-closed; "
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
    ``check_preconditions=False`` skips the torsorability check of
    ``theory``, for a caller that has made it already.
    """
    module = root_module(theory, root_order)
    twist = Twist(theory, t, tol)
    if check_preconditions:
        _require_torsorable(theory, tol)
    orr = _obstruction(twist)
    if x is None:
        x = solve_coefficients_for(_obstruction_cochain(theory.group, module, orr))
        if x is None:
            raise NotACocycle(
                "the relative obstruction class is nontrivial; "
                "no coefficients make the twisted theory consistent")

    unit = twist.unit  # its errors come before the obstruction's
    obstruction = _twisted_obstruction(
        theory.group, module, orr, consistency.defectification_obstruction(theory, tol))
    return stack_coefficients(unit, x, metadata=_metadata(unit, x.coboundary(), obstruction))


def _twisted_obstruction(group, module, orr, base):
    """The relative obstruction's phases ``orr`` times the base theory's
    defectification phases ``base``, as a closed U(1) 4-cochain.

    This is the one float path of the U(1) cochains: on anomalous data, or
    on data gauged by phases that are not roots of unity, a product does
    not snap, and the products are returned as {args: complex} for
    :func:`_metadata` to record as floats with a null class.  Its closure
    check reads the degree-4 faces that :func:`gxbtc.groups._faces` keeps.
    """
    phases = {args: value * base.get(args, 1.0) for args, value in orr.items()}
    try:
        return _obstruction_cochain(group, module, phases)
    except SnapFailure:
        return phases


def _metadata(unit, dx, obstruction):
    """Metadata of the twisted theory at coefficients x: that of ``unit``
    (:attr:`Twist.unit`, the theory at x = 1), with the nontrivial entries
    of the defect obstruction ``dx`` * ``obstruction`` (d(x) times
    :func:`_twisted_obstruction`) and whether their class is trivial.
    """
    if isinstance(obstruction, dict):  # the float path
        values = [(args, dx(*args) * obstruction[args]) for args in dx.support()]
        entries = [(args, v) for args, v in values if abs(v - 1.0) > DEFAULT_TOL]
        trivial = None
    else:
        hatted = dx.combine(obstruction)
        identity = Cochain.identity(hatted.group, 4, hatted.module)
        entries = hatted.entries.items()
        trivial = cohomologous(hatted, identity) is not None
    metadata = dict(unit.metadata)
    metadata["name"] = metadata.get("name", "theory") + "~twisted"
    encode = phase_encoder()
    metadata["obstruction"] = {
        "entries": [{"args": list(args), "value": encode(value)}
                    for args, value in entries],
        "trivial_class": trivial,
    }
    return metadata


@dataclass(frozen=True, eq=False)
class Extension:
    """One (fractionalization, defectification) pair of :func:`enumerate_extensions`.

    ``fractionalization`` and ``defectification`` index the classes of
    H^2(G, A) and H^3(G, U(1)); ``t`` and ``alpha`` are their
    representatives.  ``obstructed`` tells whether the relative obstruction
    of ``t`` is nontrivial.  ``theory`` is the twist of the base by ``t``
    with coefficients alpha times the canonical solution, or None when
    obstructed.  It is built on first access, by ``build(alpha)`` from the
    data its fractionalization class shares, and kept.
    """

    fractionalization: int
    defectification: int
    t: Cochain
    alpha: Cochain
    build: object  # alpha -> twisted theory; None when obstructed

    @property
    def obstructed(self):
        return self.build is None

    @cached_property
    def theory(self):
        return None if self.build is None else self.build(self.alpha)


def enumerate_extensions(base, root_order=None, tol=DEFAULT_TOL):
    """Twist ``base`` through every fractionalization and defectification class.

    Returns the H^2(G, A) and H^3(G, U(1)) results and the extensions in
    (fractionalization, defectification) order.  Each fractionalization
    class has one :class:`Twist`.  For each class, in order, this validates
    the twist and builds its relative obstruction and canonical
    coefficients, and for an unobstructed class its tables at x = 1, its
    twisted obstruction and the metadata of its theories, so an error is
    raised here.  The metadata is built from d(x) at the canonical x: each
    alpha is closed, so d(x * alpha) = d(x).  The base's defectification
    obstruction is snapped and checked closed once per call, at the first
    unobstructed class.  A class's twisted obstruction is then the product
    of two closed cochains, closed because d is additive, and is not
    checked again; only base phases off the roots of unity take the float
    path of :func:`_twisted_obstruction`.  Every closure check reads the
    faces that :func:`gxbtc.groups._faces` keeps per group and degree.  An
    :class:`Extension` only stacks its alpha on when its ``theory`` is
    first read.
    """
    grp = base.group
    module = root_module(base, root_order)
    h2 = cohomology(grp, 2, abelian_subgroup(base))
    h3 = cohomology(grp, 3, module)
    alphas = h3.all_classes()
    _require_torsorable(base, tol)

    @functools.cache
    def base_obstruction():
        """The closed cochain of the base's phases, or on the float path
        the phases themselves."""
        phases = consistency.defectification_obstruction(base, tol)
        try:
            return _obstruction_cochain(grp, module, phases)
        except SnapFailure:
            return phases

    extensions = []
    for it, t in enumerate(h2.all_classes()):
        twist = Twist(base, t, tol)
        orr = _obstruction(twist)
        closed_orr = _obstruction_cochain(grp, module, orr)
        base_x = solve_coefficients_for(closed_orr)
        build = None
        if base_x is not None:
            unit = twist.unit
            defect = base_obstruction()
            obstruction = (_twisted_obstruction(grp, module, orr, defect)
                           if isinstance(defect, dict) else closed_orr.combine(defect))
            metadata = _metadata(unit, base_x.coboundary(), obstruction)

            def build(alpha, unit=unit, base_x=base_x, metadata=metadata):
                return stack_coefficients(unit, base_x.combine(alpha), metadata=metadata)

        extensions += [Extension(it, ia, t, alpha, build)
                       for ia, alpha in enumerate(alphas)]
    return h2, h3, extensions
