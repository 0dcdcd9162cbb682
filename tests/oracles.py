"""Brute-force oracles used to pin expected values independently.

Everything here enumerates, writes a result out in closed form, or is the
straightforward dense version of an optimized routine; nothing shares code
with the Smith-normal-form or torsor paths it is checking.
Only usable for tiny groups and modules.
"""

import cmath
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from gxbtc import equivalence, intlin
from gxbtc.category import GxTheory, abelian_subgroup
from gxbtc.consistency import ConsistencyReport
from gxbtc.equivalence import (
    Relabeling,
    _NonRootRatio,
    relabel,
    relabel_by_1cochain,
    solve_gauge_matching,
)
from gxbtc.errors import (
    GxError,
    InvalidInput,
    MatchFailure,
    RepresentativeDependent,
    RootOrderTooSmall,
)
from gxbtc.groups import (
    DEFAULT_TOL,
    Cochain,
    CohomologyGroup,
    U1Module,
    _coboundary_matrix,
    _scale_rows_to_lcm,
    _tuple_index,
    _vec_to_cochain,
    turn_phase,
    validate_cocycle,
)
from gxbtc.torsor import apply_torsor, default_root_order


def group_exponent(group):
    """The lcm of the orders of the elements of ``group``."""
    orders = []
    for g in group.elements():
        n, x = 1, g
        while x != group.identity:
            x = group.op(x, g)
            n += 1
        orders.append(n)
    return math.lcm(*orders)


def gauge_is_trivial(gauge, tol=DEFAULT_TOL):
    """Every vertex and sheet phase of ``gauge`` is 1 within ``tol``."""
    return all(abs(v - 1.0) <= tol for v in gauge.vertex.values()) and \
        all(abs(v - 1.0) <= tol for v in gauge.sheet.values())


def all_normalized_cochains(group, degree, module_order):
    """Yield all normalized cochains as dicts tuple -> exponent (additive)."""
    tuples = list(itertools.product(group.nonidentity(), repeat=degree))
    for values in itertools.product(range(module_order), repeat=len(tuples)):
        yield dict(zip(tuples, values))


def eval_cochain(data, group, args):
    if group.identity in args:
        return 0
    return data.get(tuple(args), 0)


def brute_coboundary(data, group, degree, module_order, action=None):
    """Additive coboundary of an exponent-valued cochain."""
    out = {}
    for args in itertools.product(group.nonidentity(), repeat=degree + 1):
        first = eval_cochain(data, group, args[1:])
        if action is not None:
            first = action(args[0], first)
        acc = first
        for j in range(1, degree + 1):
            merged = args[:j - 1] + (group.op(args[j - 1], args[j]),) + args[j + 1:]
            term = eval_cochain(data, group, merged)
            acc += term if j % 2 == 0 else -term
        last = eval_cochain(data, group, args[:degree])
        acc += last if (degree + 1) % 2 == 0 else -last
        out[args] = acc % module_order
    return out


def brute_u1_cohomology_classes(group, degree, cocycle_order, boundary_order=None):
    """Class count of H^degree(G, U(1)) with mu_N cocycle representatives.

    Coboundaries are drawn from cochains valued in the finer roots
    mu_{boundary_order} (default N * |G|), matching honest U(1) coefficients.
    Returns (number of classes, one exponent-dict representative per class).
    """
    n = cocycle_order
    big = boundary_order if boundary_order is not None else n * group.order
    scale = big // n
    tuples = list(itertools.product(group.nonidentity(), repeat=degree))

    def freeze(data):
        return tuple(data.get(t, 0) % n for t in tuples)

    cocycles = []
    for data in all_normalized_cochains(group, degree, n):
        if all(v == 0 for v in brute_coboundary(data, group, degree, n).values()):
            cocycles.append(freeze(data))
    boundaries = set()
    for data in all_normalized_cochains(group, degree - 1, big):
        db = brute_coboundary(data, group, degree - 1, big)
        if all(v % scale == 0 for v in db.values()):
            boundaries.add(tuple((db.get(t, 0) // scale) % n for t in tuples))
    reps = []
    seen = set()
    for z in cocycles:
        if z in seen:
            continue
        seen.update(tuple((a + b) % n for a, b in zip(z, e)) for e in boundaries)
        reps.append(dict(zip(tuples, z)))
    return len(reps), reps


def brute_abelian_cohomology_classes(group, degree, factors, action=None):
    """Class count of H^degree(G, prod Z_m) by exhaustive enumeration.

    ``action`` maps (g, element tuple) -> element tuple.  Returns
    (class count, cocycle count, coboundary count).
    """
    tuples = list(itertools.product(group.nonidentity(), repeat=degree))
    k = len(factors)

    def vec_coboundary(data, deg):
        out = {}
        for args in itertools.product(group.nonidentity(), repeat=deg + 1):
            def look(a):
                if group.identity in a:
                    return (0,) * k
                return data.get(tuple(a), (0,) * k)
            first = look(args[1:])
            if action is not None:
                first = action(args[0], first)
            acc = list(first)
            for j in range(1, deg + 1):
                merged = args[:j - 1] + (group.op(args[j - 1], args[j]),) + args[j + 1:]
                term = look(merged)
                sign = 1 if j % 2 == 0 else -1
                acc = [a + sign * t for a, t in zip(acc, term)]
            last = look(args[:deg])
            sign = 1 if (deg + 1) % 2 == 0 else -1
            acc = [a + sign * t for a, t in zip(acc, last)]
            out[args] = tuple(a % m for a, m in zip(acc, factors))
        return out

    all_elements = list(itertools.product(*[range(m) for m in factors]))
    cocycles = []
    for values in itertools.product(all_elements, repeat=len(tuples)):
        data = dict(zip(tuples, values))
        if all(all(x == 0 for x in v) for v in vec_coboundary(data, degree).values()):
            cocycles.append(tuple(sorted(data.items())))
    lower = list(itertools.product(group.nonidentity(), repeat=degree - 1))
    boundaries = set()
    for values in itertools.product(all_elements, repeat=len(lower)):
        data = dict(zip(lower, values))
        db = vec_coboundary(data, degree - 1)
        boundaries.add(tuple(sorted(db.items())))
    def add(a, b):
        return tuple(
            (args, tuple((x + y) % m for x, y, m in zip(va, vb, factors)))
            for (args, va), (_, vb) in zip(a, b))
    classes = set()
    for z in cocycles:
        orbit = frozenset(add(z, b) for b in boundaries)
        classes.add(orbit)
    return len(classes), len(cocycles), len(boundaries)


def spectral_radius_2x2(a, b, c, d):
    """Largest eigenvalue magnitude of [[a, b], [c, d]] by closed form."""
    tr, det = a + d, a * d - b * c
    disc = (tr * tr - 4 * det) ** 0.5
    return max(abs((tr + disc) / 2), abs((tr - disc) / 2))


def dense_fusion_violations(n, triples):
    """Every (a, b, c, d) over ``range(n)`` where sum_e N_ab^e N_ec^d differs
    from sum_f N_bc^f N_af^d, in lexicographic order; O(n^5)."""
    fusion = set(triples)

    def mult(a, b, c):
        return 1 if (a, b, c) in fusion else 0

    out = []
    for a, b, c, d in itertools.product(range(n), repeat=4):
        lhs = sum(mult(a, b, e) * mult(e, c, d) for e in range(n))
        rhs = sum(mult(b, c, f) * mult(a, f, d) for f in range(n))
        if lhs != rhs:
            out.append((a, b, c, d))
    return out


def loop_snap_turns(value, max_denominator=96, snap_tol=1e-12):
    """Reference for groups.snap_turns: try every denominator in turn.

    Returns the fraction of a turn (in [0, 1)) with the smallest
    denominator whose phase lies within ``snap_tol`` of ``value``, or None.
    """
    t = cmath.phase(value) / cmath.tau
    for den in range(1, max_denominator + 1):
        p = round(t * den)
        if abs(value - turn_phase(Fraction(p, den))) <= snap_tol:
            return Fraction(p, den) % 1
    return None


# ---------------------------------------------------------------------------
# Smith normal form with dense transforms

DenseSmithForm = namedtuple("DenseSmithForm", "rows cols diag u uinv v")


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def dense_smith_normal_form(matrix, rows=None, cols=None):
    """Reference for intlin.smith_normal_form: the same elimination, with
    U and U^-1 carried as dense matrices through every row operation.

    Accepts an empty list of rows if ``rows``/``cols`` are given.
    """
    if rows is None:
        rows = len(matrix)
    if cols is None:
        cols = len(matrix[0]) if matrix else 0
    d = [list(row) for row in matrix]
    u = identity_matrix(rows)
    uinv = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        rd, rs = d[dst], d[src]
        for k in range(cols):
            rd[k] += c * rs[k]
        rd2, rs2 = u[dst], u[src]
        for k in range(rows):
            rd2[k] += c * rs2[k]
        for r in uinv:
            r[src] -= c * r[dst]

    def add_col(dst, src, c):
        # col_dst += c * col_src
        for r in d:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate a pivot of minimal magnitude in the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            row = d[i]
            for j in range(t, cols):
                a = row[j]
                if a:
                    a = abs(a)
                    if best is None or a < best:
                        best = a
                        pivot = (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, rows):
                a = d[i][t]
                if a:
                    q = a // d[t][t]
                    if q:
                        add_row(i, t, -q)
                    if d[i][t]:
                        swap_rows(t, i)
                        dirty = True
            # clear the pivot row
            for j in range(t + 1, cols):
                a = d[t][j]
                if a:
                    q = a // d[t][t]
                    if q:
                        add_col(j, t, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                col_ok = all(d[i][t] == 0 for i in range(t + 1, rows))
                row_ok = all(d[t][j] == 0 for j in range(t + 1, cols))
                if col_ok and row_ok:
                    break
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            if d[i + 1][i + 1] % d[i][i] != 0:
                changed = True
                add_col(i, i + 1, 1)
                # Euclid on rows i, i+1 restricted to column i
                while d[i + 1][i] != 0:
                    q = d[i][i] // d[i + 1][i]
                    if q:
                        add_row(i, i + 1, -q)
                    swap_rows(i, i + 1)
                # clear the junk the row ops left at (i, i+1)
                if d[i][i + 1]:
                    add_col(i + 1, i, -(d[i][i + 1] // d[i][i]))
                if d[i][i] < 0:
                    negate_row(i)
                if d[i + 1][i + 1] < 0:
                    negate_row(i + 1)
    diag = [d[i][i] for i in range(limit)]
    return DenseSmithForm(rows, cols, diag, u, uinv, v)


# ---------------------------------------------------------------------------
# closed forms for trivially acting symmetry

def _q_trivial(theory, t, group, g, h):
    hgh = group.prod(group.inverse(h), g, h)
    return theory.translate(theory.dual(t(g, h)), t(h, hgh))


def trivial_action_closed_forms(c0, group, t, x):
    """Twisted extension data written directly in the base-sector symbols.

    Independent of the generic torsor pipeline: every table is produced by
    the closed-form contractions special to a trivially acting symmetry, so
    it can serve as an oracle for apply_torsor on trivial extensions.
    ``t`` is a 2-cocycle valued in the abelian charges of ``c0`` (charge
    indices of ``c0``); ``x`` is a U(1) 3-cochain on ``group``.
    """
    if c0.group.order != 1:
        raise InvalidInput("base theory must be identity-graded")
    n0 = c0.num_charges
    g = group

    def idx(a, gg):
        return a + gg * n0

    tr = c0.translate
    dual = c0.dual
    fz = c0.f_symbol

    def f3(a, b, c, d=None):
        e = tr(a, b)
        f = tr(b, c)
        if d is None:
            d = tr(e, c)
        return fz(a, b, c, d, e, f)

    def r2(a, b):
        return c0.r_symbol(a, b, tr(a, b))

    def q(gg, hh):
        return _q_trivial(c0, t, g, gg, hh)

    grades = [0] * (n0 * g.order)
    for gg in g.elements():
        for a in range(n0):
            grades[idx(a, gg)] = gg

    fusion = []
    for gg in g.elements():
        for hh in g.elements():
            shift = t(gg, hh)
            for a, b, c in c0.fusion_triples():
                fusion.append((idx(a, gg), idx(b, hh),
                               idx(tr(shift, c), g.op(gg, hh))))

    action = {}
    for kk in g.elements():
        perm = [0] * (n0 * g.order)
        for gg in g.elements():
            shift = dual(q(gg, g.inverse(kk)))
            for a in range(n0):
                perm[idx(a, gg)] = idx(tr(shift, a), g.conj(gg, kk))
        action[kk] = tuple(perm)

    fusion_set = set(fusion)
    outcomes = {}
    for a, b, c in fusion:
        outcomes.setdefault((a, b), []).append(c)

    new_f = {}
    for gg, hh, kk in itertools.product(g.elements(), repeat=3):
        gh = g.op(gg, hh)
        hk = g.op(hh, kk)
        t_gh = t(gg, hh)
        t_hk = t(hh, kk)
        t_gh_k = t(gh, kk)
        t_g_hk = t(gg, hk)
        for a, b, c in itertools.product(range(n0), repeat=3):
            ia, ib, ic = idx(a, gg), idx(b, hh), idx(c, kk)
            for e in [e0 for e0 in range(n0)
                      if (ia, ib, idx(e0, gh)) in fusion_set]:
                e1 = tr(dual(t_gh), e)
                for d in outcomes.get((idx(e, gh), ic), ()):
                    dd = d % n0
                    d1 = tr(dual(t_gh_k), dd)
                    d2 = tr(dual(t_gh), d1)
                    d3 = tr(dual(t_g_hk), dd)
                    for f in [f0 for f0 in range(n0)
                              if (ib, ic, idx(f0, hk)) in fusion_set
                              and (ia, idx(f0, hk), idx(dd, g.op(gh, kk))) in fusion_set]:
                        f1 = tr(dual(t_hk), f)
                        a1 = tr(t_hk, a)
                        val = fz(t_gh, e1, c, d1, e, d2)
                        val = val * fz(a, b, c, d2, e1, f1)
                        val = val * fz(t_gh_k, t_gh, d2, dd,
                                       tr(t_gh_k, t_gh), d1).conjugate()
                        val = val * fz(t_g_hk, t_hk, d2, dd,
                                       tr(t_g_hk, t_hk), tr(t_hk, d2))
                        val = val * fz(t_hk, a, f1, d3, a1, d2).conjugate()
                        val = val * c0.r_symbol(t_hk, a, a1).conjugate()
                        val = val * fz(a, t_hk, f1, d3, a1, f)
                        val = val * x(gg, hh, kk)
                        new_f[(ia, ib, ic, idx(dd, g.op(gh, kk)),
                               idx(e, gh), idx(f, hk))] = val

    new_r = {}
    for gg, hh in itertools.product(g.elements(), repeat=2):
        hgh = g.prod(g.inverse(hh), gg, hh)
        q_gh = q(gg, hh)
        t_gh = t(gg, hh)
        for a, b in itertools.product(range(n0), repeat=2):
            ia, ib = idx(a, gg), idx(b, hh)
            for c in [c0_ for c0_ in range(n0)
                      if (ia, ib, idx(c0_, g.op(gg, hh))) in fusion_set]:
                a1 = tr(dual(q_gh), a)
                c1 = tr(dual(t(hh, hgh)), c)
                c2 = tr(dual(t_gh), c)
                val = c0.r_symbol(a1, b, tr(a1, b))
                val = val * fz(t_gh, q_gh, c1, c, tr(t_gh, q_gh), tr(q_gh, c1))
                val = val * fz(q_gh, a1, b, c2, a, c1).conjugate()
                new_r[(ia, ib, idx(c, g.op(gg, hh)))] = val

    new_u = {}
    for kk, gg, hh in itertools.product(g.elements(), repeat=3):
        kbar = g.inverse(kk)
        kgk = g.prod(kbar, gg, kk)
        khk = g.prod(kbar, hh, kk)
        gh = g.op(gg, hh)
        gk = g.op(gg, kk)
        q_gk, q_hk, q_ghk = q(gg, kk), q(hh, kk), q(gh, kk)
        t_gh = t(gg, hh)
        kt = t(kgk, khk)
        for a, b in itertools.product(range(n0), repeat=2):
            ia, ib = idx(a, gg), idx(b, hh)
            for c in [c0_ for c0_ in range(n0)
                      if (ia, ib, idx(c0_, gh)) in fusion_set]:
                a1 = tr(dual(q_gk), a)
                b1 = tr(dual(q_hk), b)
                c1 = tr(dual(q_ghk), c)
                c2 = tr(dual(t_gh), c)
                c3 = tr(dual(kt), c1)
                c4 = tr(dual(q_hk), c2)
                qa = tr(q_hk, a)
                val = c0.r_symbol(q_hk, a, qa).conjugate()
                val = val * fz(q_gk, a1, b1, c4, a, c3).conjugate()
                val = val * fz(q_hk, a, b1, c2, qa, c4).conjugate()
                val = val * fz(a, q_hk, b1, c2, qa, b)
                num = (f3(tr(t(gk, khk), t(gg, kk)), q_gk, c3)
                       * f3(t(gg, g.op(hh, kk)), t(hh, kk), q_hk)
                       * f3(tr(t(hh, kk), t(gg, g.op(hh, kk))), q_hk, c4)
                       * f3(t(gh, kk), t_gh, c2))
                den = (f3(t(kk, g.prod(kbar, gh, kk)), kt, c3)
                       * f3(t(gk, khk), t(gg, kk), q_gk)
                       * f3(t(gh, kk), q_ghk, c1))
                val = val * (num / den)
                val = val * (x(gg, kk, khk) / (x(gg, hh, kk) * x(kk, kgk, khk)))
                new_u[(kk, ia, ib, idx(c, gh))] = val

    new_eta = {}
    for kk, gg, hh in itertools.product(g.elements(), repeat=3):
        gh = g.op(gg, hh)
        gkg = g.prod(g.inverse(gg), kk, gg)
        hgkgh = g.prod(g.inverse(hh), gkg, hh)
        t_gh = t(gg, hh)
        q_kgh, q_kg, q_gkgh = q(kk, gh), q(kk, gg), q(gkg, hh)
        for xc in range(n0):
            x1 = tr(dual(q_kgh), xc)
            x2 = tr(dual(q_kg), xc)
            x3 = tr(t_gh, x1)
            val = r2(t_gh, xc)
            val = val * r2(x1, t_gh)
            num = (f3(t(g.op(kk, gg), hh), t(kk, gg), q_kg)
                   * f3(t(gg, g.op(gkg, hh)), t(gkg, hh), q_gkgh)
                   * f3(t(gh, hgkgh), t_gh, x1)
                   * f3(t(kk, gh), q_kgh, x3))
            den = (f3(t(kk, gh), t_gh, xc)
                   * f3(tr(t(g.op(kk, gg), hh), t(kk, gg)), q_kg, x2)
                   * f3(tr(t(gg, g.op(gkg, hh)), t(gkg, hh)), q_gkgh, x1)
                   * f3(q_kgh, x1, t_gh))
            val = val * (num / den)
            val = val * (x(gg, gkg, hh) / (x(gg, hh, hgkgh) * x(kk, gg, hh)))
            new_eta[(idx(xc, kk), gg, hh)] = val

    meta = {"name": (c0.metadata.get("name", "c0")) + "_closed_form_twist"}
    return GxTheory(g, grades, c0.vacuum, fusion, new_f, new_r, new_u, new_eta,
                    action, metadata=meta)


def trivial_action_obstruction(c0, group, t, root_order=8):
    """Closed-form pentagon-defect phase for a trivially acting symmetry."""
    g = group
    tr = c0.translate

    def f3(a, b, c):
        e = tr(a, b)
        f = tr(b, c)
        return c0.f_symbol(a, b, c, tr(e, c), e, f)

    entries = {}
    for gg, hh, kk, ll in itertools.product(g.elements(), repeat=4):
        gh, hk, kl = g.op(gg, hh), g.op(hh, kk), g.op(kk, ll)
        hkl, ghk = g.op(hh, kl), g.op(gg, hk)
        t_gh, t_kl = t(gg, hh), t(kk, ll)
        val = c0.r_symbol(t_kl, t_gh, tr(t_kl, t_gh))
        val = val * (f3(t(gh, kl), t_gh, t_kl) / f3(t(gh, kl), t_kl, t_gh))
        val = val * (f3(t(gg, hkl), t(hk, ll), t(hh, kk))
                     / f3(t(gg, hkl), t(hh, kl), t_kl))
        val = val * (f3(t(ghk, ll), t(gh, kk), t_gh)
                     / f3(t(ghk, ll), t(gg, hk), t(hh, kk)))
        entries[(gg, hh, kk, ll)] = val
    return Cochain(group, 4, U1Module(root_order), entries)


# ---------------------------------------------------------------------------
# relabeling by 1-cochains, solved by gauge search

def trivial_twist(theory):
    """The identity 2-cochain in the abelian charge module of ``theory``."""
    return Cochain.identity(theory.group, 2, abelian_subgroup(theory))


def boundary_coefficients(theory, z):
    """Phase coefficients absorbed by relabeling with the 1-cochain ``z``.

    The twisted functor with twist d(z) and these coefficients reproduces
    the relabeled theory up to a gauge; their coboundary inverts the
    relative obstruction of d(z).
    """
    grp = theory.group
    dual = theory.dual
    act = theory.act
    tr = theory.translate
    dz = z.coboundary()

    def value(g, h, k):
        gh = grp.op(g, h)
        hk = grp.op(h, k)
        ghk = grp.op(gh, k)
        zbar_g = dual(z(g))
        gzbar_h = act(g, dual(z(h)))
        ghzbar_k = act(gh, dual(z(k)))
        gdz_hk = act(g, dz(h, k))
        zk_zhk = act(g, tr(z(k), dual(z(hk))))
        zhk_zghk = tr(act(g, z(hk)), dual(z(ghk)))
        zh_zgh = act(g, tr(z(h), dual(z(gh))))
        val = theory.eta_symbol(ghzbar_k, g, h)
        val = val * theory.u_line(g, gdz_hk, act(g, dual(z(h))))
        val = val * theory.u_line(g, zk_zhk, ghzbar_k)
        val = val * theory.r_line(gdz_hk, zbar_g)
        num = (theory.f_line(dz(gh, k), zh_zgh, gzbar_h)
               * theory.f_line(dz(gh, k), dz(g, h), zbar_g)
               * theory.f_line(dz(g, hk), zbar_g, gdz_hk))
        den = (theory.f_line(dz(g, hk), gdz_hk, zbar_g)
               * theory.f_line(zhk_zghk, gdz_hk, gzbar_h)
               * theory.f_line(zhk_zghk, zk_zhk, ghzbar_k))
        return val * (num / den)

    entries = {}
    for args in itertools.product(grp.elements(), repeat=3):
        entries[args] = value(*args)
    order = default_root_order(theory)
    return Cochain(grp, 3, U1Module(order), entries)


def coboundary_equivalence(theory, z, tol=DEFAULT_TOL):
    """Witness that relabeling by ``z`` equals the twist by its coboundary.

    Returns (coefficients, gauge) with
    ``apply_gauge(relabel_by_1cochain(theory, z), gauge)`` equal to
    ``apply_torsor(theory, d(z), coefficients)`` entrywise.
    """
    coeffs = boundary_coefficients(theory, z)
    twisted = apply_torsor(theory, z.coboundary(), coeffs, tol)
    relabeled = relabel_by_1cochain(theory, z)
    try:
        gauge = solve_gauge_matching(relabeled, twisted, tol)
    except _NonRootRatio as exc:
        raise MatchFailure(str(exc)) from exc
    if gauge is None:
        raise MatchFailure(
            "no gauge matches the relabeled theory to its twisted form")
    return coeffs, gauge


def gauge_search_collapse(base, module, theories, tol):
    """Group unobstructed outputs under 1-cochain relabel equivalence."""
    grp = base.group
    slots = [(g,) for g in grp.nonidentity()]
    zs = [Cochain(grp, 1, module, dict(zip(slots, combo)))
          for combo in itertools.product(module.charges, repeat=len(slots))]
    results = []
    labels = {}
    for idx, (entry, theory) in enumerate(theories):
        if idx in labels:
            continue
        labels[idx] = idx
        group_members = [idx]
        for jdx in range(idx + 1, len(theories)):
            if jdx in labels:
                continue
            other = theories[jdx][1]
            undecided = 0
            for moved in _relabeled_by_cochains(theory, zs):
                try:
                    gauge = equivalence.solve_gauge_matching(moved, other, tol)
                except _NonRootRatio:
                    undecided += 1
                    continue
                if gauge is not None:
                    labels[jdx] = idx
                    group_members.append(jdx)
                    break
            else:
                if undecided:
                    results.append({"pair": [idx, jdx],
                                    "verdict": "inconclusive"})
        results.append({"class_representative": idx, "members": group_members,
                        "verdict": "collapsed" if len(group_members) > 1
                        else "distinct"})
    return results


def _relabeled_by_cochains(theory, zs):
    for z in zs:
        try:
            moved = equivalence.relabel_by_1cochain(theory, z)
        except GxError:
            continue
        yield moved


# ---------------------------------------------------------------------------
# the unpruned relabeling search: every grade-preserving permutation is
# built, then kept when the relabeled theory's vacuum, fusion and action
# equal the target's


def _grade_preserving_permutations(theory):
    by_grade = {}
    for a in theory.charges():
        by_grade.setdefault(theory.grade(a), []).append(a)
    pools = [list(itertools.permutations(chs)) for chs in by_grade.values()]
    blocks = list(by_grade.values())
    for combo in itertools.product(*pools):
        perm = [0] * theory.num_charges
        for block, images in zip(blocks, combo):
            for src, dst in zip(block, images):
                perm[src] = dst
        yield Relabeling(tuple(perm))


def structure_matching_relabelings(source, target):
    """Reference for equivalence._structure_preserving_permutations."""
    triples = set(target.fusion_triples())
    for relabeling in _grade_preserving_permutations(source):
        moved = relabel(source, relabeling)
        if moved.vacuum == target.vacuum \
                and set(moved.fusion_triples()) == triples \
                and moved.action == target.action:
            yield relabeling


# ---------------------------------------------------------------------------
# U(1) cohomology by lattices, the algorithm groups.cohomology used before
# it read the answer off one Smith form: the cocycle lattice at root order
# N modulo the coboundaries of mu_{N|G|} cochains that land in mu_N, through
# an augmented integer kernel and quotient_group.  It runs on intlin's Smith
# forms, but on other matrices than the coboundary's.  The mu_N answer is
# compared with the answer at a multiple of the group exponent to detect a
# root order that is too small.


def lattice_u1_cohomology(group, degree, module):
    """H^degree(group, U(1)) at ``module``'s root order, by lattices."""
    result = _cohomology_u1(group, degree, module.order)
    if module.order % group_exponent(group) != 0:
        canonical = _cohomology_u1(
            group, degree, math.lcm(module.order, group_exponent(group)))
        if math.prod(canonical.orders or [1]) != math.prod(result.orders or [1]):
            raise RootOrderTooSmall(
                f"root order {module.order} misses classes of H^{degree}; "
                f"use a multiple of the group exponent {group_exponent(group)}")
    return result


def _boundary_lattice_u1(group, degree, root_order):
    """Generators of the exponent lattice of U(1) coboundaries inside mu_N.

    Works in mu_K with K = N * |G|: a coboundary of a finer cochain that
    happens to land in mu_N counts, which is what distinguishes honest
    U(1)-coefficient cohomology from H^n(G, mu_N).
    """
    n_coords = len(_tuple_index(group, degree)[0])
    if degree == 0 or n_coords == 0:
        return [], n_coords
    scale = group.order
    big = root_order * scale
    dmat, rows, cols = _coboundary_matrix(group, degree - 1, U1Module(big))
    if rows != n_coords:
        raise AssertionError("coordinate bookkeeping mismatch")
    # kernel of [D | K*I | -s*I] -> v-parts generate ((image(D) + K Z) /\ s Z) / s
    aug = [{**dmat[i], cols + i: big, cols + rows + i: -scale}
           for i in range(rows)]
    kernel = intlin.integer_kernel(aug, rows, cols + 2 * rows)
    gens = [vec[cols + rows:] for vec in kernel]
    gens = [g for g in gens if any(g)]
    for i in range(n_coords):  # mu_N itself collapses, even when D is degenerate
        gens.append([root_order if j == i else 0 for j in range(n_coords)])
    return gens, n_coords


def _cohomology_u1(group, degree, root_order):
    module = U1Module(root_order)
    ambient, n_coords = _cocycle_lattice(group, degree, module)
    gens, _ = _boundary_lattice_u1(group, degree, root_order)
    return _quotient_to_result(
        group, degree, module, ambient, gens, n_coords,
        lambda v: [x % root_order for x in v])


def _cocycle_lattice(group, degree, module):
    """Basis of the lattice of (lifted) cocycle coordinate vectors."""
    k = len(module.factors)
    n_coords = len(_tuple_index(group, degree)[0]) * k
    dmat, rows, cols = _coboundary_matrix(group, degree, module)
    scaled, lcm = _scale_rows_to_lcm(dmat, module.factors, rows // k)
    if cols != n_coords:
        raise AssertionError("coordinate bookkeeping mismatch")
    if rows == 0:
        return identity_matrix(n_coords), n_coords
    basis = intlin.congruence_kernel_lattice(scaled, lcm, rows, cols)
    return basis, n_coords


def _quotient_to_result(group, degree, module, ambient, gens, n_coords, reduce_vec):
    if n_coords == 0:
        return CohomologyGroup(group, degree, module, [], [])
    orders, vecs = intlin.quotient_group(ambient, gens)
    if any(o == 0 for o in orders):
        raise AssertionError("cohomology of a finite module came out infinite")
    pairs = sorted(zip(orders, vecs), key=lambda p: p[0])
    reps = [_vec_to_cochain(group, degree, module, reduce_vec(v)) for _, v in pairs]
    return CohomologyGroup(group, degree, module, [o for o, _ in pairs], reps)


# Nested-loop references for the pentagon kernel of gxbtc.consistency.


def loop_check_pentagon(theory, max_nontrivial_defects=4, tol=DEFAULT_TOL):
    """Associativity coherence over all admissible charge tuples.

    With ``max_nontrivial_defects = 3`` the sweep skips tuples whose four
    fused charges all carry nontrivial grades; that restricted equation is
    exactly what torsor wellformedness requires of its input.
    """
    rep = ConsistencyReport("pentagon")
    ident = theory.group.identity
    fz = theory.f_or_zero
    for a, b, c, d in itertools.product(theory.charges(), repeat=4):
        if max_nontrivial_defects < 4:
            nontrivial = sum(1 for x in (a, b, c, d) if theory.grade(x) != ident)
            if nontrivial > max_nontrivial_defects:
                continue
        for f in theory.fusion_outcomes(a, b):
            for g in theory.fusion_outcomes(f, c):
                for e in theory.fusion_outcomes(g, d):
                    for l in theory.fusion_outcomes(c, d):
                        for k in theory.fusion_outcomes(b, l):
                            if not theory.n(a, k, e):
                                continue
                            lhs = fz(f, c, d, e, g, l) * fz(a, b, l, e, f, k)
                            rhs = 0j
                            for h in theory.fusion_outcomes(b, c):
                                rhs += (fz(a, b, c, g, f, h)
                                        * fz(a, h, d, e, g, k)
                                        * fz(b, c, d, k, h, l))
                            rep.record((a, b, c, d, e, f, g, k, l), lhs, rhs, tol)
    return rep


def loop_defectification_obstruction(theory, tol=DEFAULT_TOL, rep_tol=None,
                                root_order=1):
    """Phase by which the four-defect pentagon fails, per grade 4-tuple.

    The phase of one charge assignment is the pentagon's right side, summed
    over y, over its two-F side.  Every admissible charge assignment for a
    given grade tuple must produce the same phase; disagreement beyond
    ``rep_tol`` raises, since it means the three-defect consistency
    precondition did not actually hold.  ``root_order`` only tags the root
    order of the returned cochain's module for downstream exact solving.
    """
    if rep_tol is None:
        rep_tol = max(tol, 1e-9)
    group = theory.group
    fz = theory.f_or_zero
    values = {}
    for gt in itertools.product(group.nonidentity(), repeat=4):
        g1, g2, g3, g4 = gt
        found = None
        for a in theory.charges_of_grade(g1):
            for b in theory.charges_of_grade(g2):
                for x in theory.fusion_outcomes(a, b):
                    for c in theory.charges_of_grade(g3):
                        for z in theory.fusion_outcomes(x, c):
                            for d in theory.charges_of_grade(g4):
                                for p in theory.fusion_outcomes(z, d):
                                    for r in theory.fusion_outcomes(c, d):
                                        if not theory.n(x, r, p):
                                            continue
                                        for q in theory.fusion_outcomes(b, r):
                                            if not theory.n(a, q, p):
                                                continue
                                            num = 0j
                                            for y in theory.fusion_outcomes(b, c):
                                                num += (fz(a, b, c, z, x, y)
                                                        * fz(a, y, d, p, z, q)
                                                        * fz(b, c, d, q, y, r))
                                            den = (fz(a, b, r, p, x, q)
                                                   * fz(x, c, d, p, z, r))
                                            if abs(den) < 1e-12:
                                                continue
                                            val = num / den
                                            if found is None:
                                                found = val
                                            elif abs(val - found) > rep_tol:
                                                raise RepresentativeDependent(
                                                    f"pentagon defect at grades {gt} "
                                                    f"depends on the charge assignment: "
                                                    f"{val} vs {found}")
        values[gt] = found if found is not None else complex(1.0)
    cochain = Cochain(theory.group, 4, U1Module(root_order), values)
    validate_cocycle(cochain, max(tol, 1e-7), degree=4)
    return cochain


# Nested-loop references for the other array sweeps of gxbtc.consistency.
# A table entry the theory lacks reads as 0, and so does a quotient by one.


def loop_check_heptagons(theory, tol=DEFAULT_TOL):
    """Both braiding coherence equations; returns [plus, minus] reports."""
    plus = ConsistencyReport("heptagon+")
    minus = ConsistencyReport("heptagon-")
    group = theory.group
    fz = theory.f_or_zero
    rz = theory.r_entries().get
    uz = theory.u_entries().get
    etaz = theory.eta_entries().get
    for a, b, c in itertools.product(theory.charges(), repeat=3):
        gg = theory.grade(a)
        hh = theory.grade(b)
        kk = theory.grade(c)
        kbar = group.inverse(kk)
        gbar = group.inverse(gg)
        a_k = theory.act(kbar, a)
        b_k = theory.act(kbar, b)
        # counterclockwise: labels a_g, b_h, c_k, d_ghk, e_gk, g_hk
        for e in theory.fusion_outcomes(a, c):
            for gout in theory.fusion_outcomes(b, c):
                for d in theory.fusion_outcomes(e, b_k):
                    if not theory.n(a, gout, d):
                        continue
                    lhs = (rz((a, c, e), 0j) * fz(a, c, b_k, d, e, gout)
                           * rz((b, c, gout), 0j))
                    rhs = 0j
                    for f in theory.fusion_outcomes(a, b):
                        if not theory.n(f, c, d):
                            continue
                        rhs += (fz(c, a_k, b_k, d, e, theory.act(kbar, f))
                                * uz((kk, a, b, f), 0j)
                                * rz((f, c, d), 0j)
                                * fz(a, b, c, d, f, gout))
                    plus.record((a, b, c, d, e, gout), lhs, rhs, tol)
        # clockwise: labels a_g, b_h, c_k, d_kgh, e_kg, g_{g^-1 k g h}
        c_g = theory.act(gbar, c)
        c_gh = theory.act(group.inverse(group.op(gg, hh)), c)
        for e in theory.fusion_outcomes(c, a):
            for gout in theory.fusion_outcomes(c_g, b):
                for d in theory.fusion_outcomes(e, b):
                    if not theory.n(a, gout, d):
                        continue
                    lhs = (rz((c, a, e), 0j).conjugate()
                           * fz(a, c_g, b, d, e, gout)
                           * rz((c_g, b, gout), 0j).conjugate())
                    rhs = 0j
                    for f in theory.fusion_outcomes(a, b):
                        if not theory.n(c, f, d):
                            continue
                        rhs += (fz(c, a, b, d, e, f)
                                * etaz((c, gg, hh), 0j)
                                * rz((c, f, d), 0j).conjugate()
                                * fz(a, b, c_gh, d, f, gout))
                    minus.record((a, b, c, d, e, gout), lhs, rhs, tol)
    return [plus, minus]


def loop_check_eta_associativity(theory, tol=DEFAULT_TOL):
    """Projective local-action phases compose across group multiplication."""
    rep = ConsistencyReport("eta-assoc")
    group = theory.group
    etaz = theory.eta_entries().get
    for x in theory.charges():
        for g, h, k in itertools.product(group.elements(), repeat=3):
            lhs = etaz((x, g, h), 0j) * etaz((x, group.op(g, h), k), 0j)
            xg = theory.act(group.inverse(g), x)
            rhs = etaz((x, g, group.op(h, k)), 0j) * etaz((xg, h, k), 0j)
            rep.record((x, g, h, k), lhs, rhs, tol)
    return rep


def loop_check_kappa_sliding(theory, tol=DEFAULT_TOL):
    """Decomposition of the composite sheet phase into local eta factors."""
    rep = ConsistencyReport("kappa-sliding")
    group = theory.group
    uz = theory.u_entries().get
    etaz = theory.eta_entries().get
    for a, b, c in theory.fusion_triples():
        for g in group.elements():
            gbar = group.inverse(g)
            ag, bg, cg = theory.act(gbar, a), theory.act(gbar, b), theory.act(gbar, c)
            for h in group.elements():
                num = etaz((a, g, h), 0j) * etaz((b, g, h), 0j)
                den = etaz((c, g, h), 0j)
                lhs = num / den if den else 0j
                rhs = (uz((g, a, b, c), 0j).conjugate()
                       * uz((h, ag, bg, cg), 0j).conjugate()
                       * uz((group.op(g, h), a, b, c), 0j))
                rep.record((a, b, c, g, h), lhs, rhs, tol)
    return rep


# Nested-loop references for the twisted F and U tables of gxbtc.torsor.


def _loop_torsored_f_value(theory, t, a, b, c, d, e, f):
    grp = theory.group
    g, h, k = theory.grade(a), theory.grade(b), theory.grade(c)
    t_gh = t(g, h)
    t_hk = t(h, k)
    t_gh_k = t(grp.op(g, h), k)
    t_g_hk = t(g, grp.op(h, k))
    gt_hk = theory.act(g, t_hk)
    dual = theory.dual
    tr = theory.translate
    e1 = tr(dual(t_gh), e)
    f1 = tr(dual(t_hk), f)
    a1 = tr(gt_hk, a)
    d1 = tr(dual(t_gh_k), d)
    d2 = tr(dual(t_gh), d1)
    d3 = tr(dual(t_g_hk), d)
    value = theory.f_symbol(t_gh, e1, c, d1, e, d2)
    value = value * theory.f_symbol(a, b, c, d2, e1, f1)
    value = value * theory.f_symbol(
        t_gh_k, t_gh, d2, d, theory.fuse_abelian(t_gh_k, t_gh), d1).conjugate()
    value = value * theory.f_symbol(
        t_g_hk, gt_hk, d2, d, theory.fuse_abelian(t_g_hk, gt_hk), tr(gt_hk, d2))
    value = value * theory.f_symbol(gt_hk, a, f1, d3, a1, d2).conjugate()
    value = value * theory.r_symbol(gt_hk, a, a1).conjugate()
    return value * theory.f_symbol(a, t_hk, f1, d3, a1, f)


def loop_torsored_f(twist):
    """F table of the twisted theory at x = 1, keyed on twisted fusion tuples."""
    theory, t = twist.theory, twist.t
    triples, outcomes = twist.fusion
    table = {}
    for a, b, e in triples:
        for c in theory.charges():
            for d in outcomes.get((e, c), ()):
                for f in outcomes.get((b, c), ()):
                    if d in outcomes.get((a, f), ()):
                        table[(a, b, c, d, e, f)] = _loop_torsored_f_value(
                            theory, t, a, b, c, d, e, f)
    return table


def _loop_torsored_u_value(theory, t, q, k, a, b, c):
    grp = theory.group
    g, h = theory.grade(a), theory.grade(b)
    kbar = grp.inverse(k)
    kgk = grp.prod(kbar, g, k)
    khk = grp.prod(kbar, h, k)
    gh = grp.op(g, h)
    gk = grp.op(g, k)
    dual = theory.dual
    tr = theory.translate
    f3 = theory.f_line
    t_gh = t(g, h)
    kt = theory.act(k, t(kgk, khk))
    gt_hk = theory.act(g, t(h, k))
    gq_hk = theory.act(g, q[(h, k)])
    a1 = tr(dual(q[(g, k)]), a)
    b1 = tr(dual(q[(h, k)]), b)
    c1 = tr(dual(q[(gh, k)]), c)
    c2 = tr(dual(t_gh), c)
    c3 = tr(dual(kt), c1)
    c4 = tr(theory.act(g, dual(q[(h, k)])), c2)
    qa = tr(gq_hk, a)
    value = theory.u_symbol(k, a1, b1, c3)
    value = value * theory.u_symbol(k, kt, c3, c1)
    value = value * theory.u_line(g, gt_hk, gq_hk)
    value = value * theory.r_line(gq_hk, a).conjugate()
    value = value * theory.f_symbol(q[(g, k)], a1, b1, c4, a, c3).conjugate()
    value = value * theory.f_symbol(gq_hk, a, b1, c2, qa, c4).conjugate()
    value = value * theory.f_symbol(a, q[(h, k)], b1, c2, qa, b)
    num = (f3(theory.fuse_abelian(t(gk, khk), t(g, k)), q[(g, k)], c3)
           * f3(t(g, grp.op(h, k)), gt_hk, gq_hk)
           * f3(theory.fuse_abelian(gt_hk, t(g, grp.op(h, k))), gq_hk, c4)
           * f3(t(gh, k), t_gh, c2))
    den = (f3(t(k, grp.prod(kbar, gh, k)), kt, c3)
           * f3(t(gk, khk), t(g, k), q[(g, k)])
           * f3(t(gh, k), q[(gh, k)], c1))
    return value * (num / den)


def loop_torsored_u(twist):
    """Sheet-over-vertex table of the twisted theory at x = 1."""
    theory, t, q = twist.theory, twist.t, twist.transfer
    return {(k, a, b, c): _loop_torsored_u_value(theory, t, q, k, a, b, c)
            for k in theory.group.elements() for a, b, c in twist.fusion[0]}
