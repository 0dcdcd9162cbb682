"""Consistency equations of G-crossed theories and obstruction extraction.

Each checker sweeps every admissible index tuple, compares both sides of
its equation, and reports the worst residual together with the failing
tuples.  Sweeps are exhaustive; inputs are desk scale by design.  A table
entry that a sweep needs and the theory lacks reads as 0, and so does a
quotient by one, so the equation fails there; ``category.validate`` names
the entry.

Every sweep but the hexagon runs on one numpy index of the theory
(:class:`TheoryIndex`): the pentagon sweeps (``check_pentagon``, and
through it ``base_theory_torsorable``, and ``defectification_obstruction``),
both heptagons, eta associativity and kappa sliding.  ``torsor`` builds its
twisted F and U tables on the same index.  Complex arithmetic is written
out on float64 parts as CPython's complex ``*``, ``/`` and ``abs``, sums
add their terms from 0 in the loops' order, and results are put back in
the nested-loop order, so reports and obstructions are bit-identical to the
scalar loops kept in ``tests/oracles.py``.  The hexagon, a small share of a
``check``, stays a loop.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InadmissibleTuple, RepresentativeDependent
from .groups import DEFAULT_TOL, Cochain, U1Module, validate_cocycle


MAX_FAILURES = 32


@dataclass
class ConsistencyReport:
    """One checker sweep; keeps only the first ``MAX_FAILURES`` failures."""

    equation: str
    worst_residual: float = 0.0
    failures: list = field(default_factory=list)
    checked: int = 0

    def record(self, index, lhs, rhs, tol):
        self.checked += 1
        residual = abs(lhs - rhs)
        if residual > self.worst_residual:
            self.worst_residual = residual
        if residual > tol and len(self.failures) < MAX_FAILURES:
            self.failures.append((index, lhs, rhs))

    def passed(self, tol=DEFAULT_TOL):
        return self.worst_residual < tol

    def to_json(self):
        return {
            "equation": self.equation,
            "worst_residual": self.worst_residual,
            "checked": self.checked,
            "failures": [
                {"index": list(map(str, idx)), "lhs": [lhs.real, lhs.imag],
                 "rhs": [rhs.real, rhs.imag]}
                for idx, lhs, rhs in self.failures
            ],
        }


def _record(rep, labels, lhs, rhs, tol, loop_keys=None):
    """``rep.record`` for every tuple of one sweep, as the loop would call it.

    ``labels`` are the index columns, ``lhs`` and ``rhs`` (re, im) arrays.
    Rows are in loop order unless ``loop_keys`` are given: then the failures
    are taken in ``np.lexsort(loop_keys)`` order.
    """
    rep.checked += len(lhs[0])
    residual = np.hypot(lhs[0] - rhs[0], lhs[1] - rhs[1])
    rep.worst_residual = max(rep.worst_residual,
                             float(np.fmax.reduce(residual, initial=0.0)))
    room = MAX_FAILURES - len(rep.failures)
    failing = np.flatnonzero(residual > tol)
    if not room or not len(failing):
        return
    if loop_keys is not None:
        failing = failing[np.lexsort(_take(failing, *loop_keys))]
    for i in failing[:room].tolist():
        rep.failures.append((
            tuple(int(x[i]) for x in labels),
            complex(lhs[0][i], lhs[1][i]), complex(rhs[0][i], rhs[1][i])))


class _Table:
    """One symbol table: int64 codes of its keys in the mixed radix
    ``sizes``, sorted, with the float64 parts of their values.  A lookup is a
    ``searchsorted``; a missing key reads as 0."""

    def __init__(self, entries, sizes):
        self.sizes = sizes
        keys = np.array(list(entries), dtype=np.int64).reshape(-1, len(sizes))
        values = np.array(list(entries.values()), dtype=complex)
        codes = self.code(*keys.T)
        order = np.argsort(codes, kind="stable")
        # a last, zero entry past every code: each searchsorted position is
        # valid, and a missing key is sent there
        self.codes = np.append(codes[order], np.iinfo(np.int64).max)
        self.re = np.append(values.real[order], 0.0)
        self.im = np.append(values.imag[order], 0.0)
        self.absent = len(self.codes) - 1

    def code(self, *labels):
        acc = 0
        for x, size in zip(labels, self.sizes):
            acc = acc * size + x
        return acc

    def at(self, *labels):
        """Positions of the keys; ``absent`` for a missing one."""
        code = self.code(*labels)
        pos = np.searchsorted(self.codes, code)
        pos[self.codes[pos] != code] = self.absent
        return pos

    def __call__(self, *labels):
        """(re, im) arrays of the values; 0 off the table."""
        pos = self.at(*labels)
        return self.re[pos], self.im[pos]


class FusionIndex:
    """Multiplicity-free fusion over the charges ``range(n)``, as arrays.

    ``triples`` must be sorted by (a, b, c).  They form a CSR index over the
    pair a*n + b; a dense mask of size n**3 answers N(a, b, c), and
    ``single`` holds the outcome of each pair that has exactly one.
    """

    def __init__(self, n, triples):
        self.n = n
        self.triples = np.array(triples, dtype=np.int64).reshape(-1, 3)
        pair = self.triples[:, 0] * n + self.triples[:, 1]
        self.ptr = np.searchsorted(pair, np.arange(n * n + 1))
        self.mid, self.out = self.triples[:, 1], self.triples[:, 2]
        self.mask = np.zeros(n ** 3, dtype=bool)
        self.mask[pair * n + self.out] = True
        one = np.flatnonzero(np.diff(self.ptr) == 1)
        self.single = np.full(n * n, -1)
        self.single[one] = self.out[self.ptr[one]]

    def admissible(self, a, b, c):
        return self.mask[(a * self.n + b) * self.n + c]

    def translate(self, x, a):
        """The one outcome of each pair (x, a), as ``GxTheory.translate``;
        raises at the first pair with none or several."""
        pair = x * self.n + a
        out = self.single[pair]
        bad = np.flatnonzero(out < 0)
        if len(bad):
            p = int(pair[bad[0]])
            outcomes = tuple(self.out[self.ptr[p]:self.ptr[p + 1]].tolist())
            raise InadmissibleTuple(
                f"translation by {p // self.n} of {p % self.n} is not unique: "
                f"outcomes {outcomes}")
        return out

    @staticmethod
    def _spread(lo, hi):
        """Each row i repeated hi[i] - lo[i] times, with positions lo..hi-1."""
        count = hi - lo
        rows = np.repeat(np.arange(len(lo)), count)
        return rows, np.arange(len(rows)) + np.repeat(lo - np.cumsum(count) + count, count)

    def outcomes(self, a, b):
        """Rows and outcomes c of N(a[i], b[i], c), ascending per row."""
        pair = a * self.n + b
        rows, pos = self._spread(self.ptr[pair], self.ptr[pair + 1])
        return rows, self.out[pos]

    def right_factors(self, a):
        """Rows, then (b, c) of each triple N(a[i], b, c), in sorted order."""
        rows, pos = self._spread(self.ptr[a * self.n], self.ptr[(a + 1) * self.n])
        return rows, self.mid[pos], self.out[pos]

    def expand(self, x, y, *columns):
        """Each row of ``columns`` once per outcome z of x (x) y, ascending;
        returns the repeated columns, then z."""
        rows, z = self.outcomes(x, y)
        return (*_take(rows, *columns), z)


class TheoryIndex(FusionIndex):
    """A theory's fusion, grades, duals, group and action as arrays, and its
    F, R, U and eta tables as :class:`_Table` lookups built on first use.

    Group elements index ``mult``, ``inv`` and the rows of ``act``
    (``act[g, a]`` is g acting on a).  Table keys are coded in the radix of
    their labels; n**6 stays below 2**63 for any desk-scale n.
    """

    def __init__(self, theory):
        super().__init__(theory.num_charges, theory.fusion_triples())
        group = theory.group
        self.order = group.order
        self.vacuum = theory.vacuum
        self.mult = np.array(group.mult, dtype=np.int64)
        self.inv = np.array(group.inv, dtype=np.int64)
        self.grade = np.array(theory.grades, dtype=np.int64)
        self.dual = np.array([theory.dual(a) for a in theory.charges()],
                             dtype=np.int64)
        self.act = np.array([theory.action[g] for g in group.elements()],
                            dtype=np.int64).reshape(group.order, self.n)
        self.nontrivial = (self.grade != group.identity).astype(np.int64)
        self._entries = (theory.f_entries(), theory.r_entries(),
                         theory.u_entries(), theory.eta_entries())

    def fuse_abelian(self, x, y):
        """``GxTheory.fuse_abelian(x, y)``: the vacuum, then x, then y."""
        return self.translate(self.translate(np.full_like(x, self.vacuum), x), y)

    @cached_property
    def f(self):
        return _Table(self._entries[0], (self.n,) * 6)

    @cached_property
    def r(self):
        return _Table(self._entries[1], (self.n,) * 3)

    @cached_property
    def u(self):
        return _Table(self._entries[2], (self.order, self.n, self.n, self.n))

    @cached_property
    def eta(self):
        return _Table(self._entries[3], (self.n, self.order, self.order))

    def pentagon_tuples(self, a, fewest, most):
        """Columns (b, c, d, f, g, e, l, k) of the pentagon tuples with first
        charge ``a``: N(a,b,f) N(f,c,g) N(g,d,e) N(c,d,l) N(b,l,k) N(a,k,e),
        with between ``fewest`` and ``most`` nontrivial grades among
        a, b, c, d.  Rows are pruned as each of b, c, d is placed, so one
        call holds about n**3 rows for multiplicity-free abelian fusion.
        """
        nt = self.nontrivial

        def within(*charges):
            count = sum(nt[x] for x in charges)
            return (count <= most) & (count + 4 - len(charges) >= fewest)

        _, b, f = self.right_factors(np.array([a]))
        b, f = _take(within(a, b), b, f)
        rows, c, g = self.right_factors(f)
        b, f = _take(rows, b, f)
        b, f, c, g = _take(within(a, b, c), b, f, c, g)
        rows, d, e = self.right_factors(g)
        b, f, c, g = _take(rows, b, f, c, g)
        b, f, c, g, d, e = _take(within(a, b, c, d), b, f, c, g, d, e)
        rows, l = self.outcomes(c, d)
        b, f, c, g, d, e = _take(rows, b, f, c, g, d, e)
        rows, k = self.outcomes(b, l)
        b, f, c, g, d, e, l = _take(rows, b, f, c, g, d, e, l)
        return _take(self.admissible(a, k, e), b, c, d, f, g, e, l, k)


_INDEX_CACHE = weakref.WeakKeyDictionary()


def theory_index(theory):
    """The :class:`TheoryIndex` of ``theory``, built once per theory."""
    index = _INDEX_CACHE.get(theory)
    if index is None:
        index = _INDEX_CACHE[theory] = TheoryIndex(theory)
    return index


def _take(index, *columns):
    return tuple(col[index] for col in columns)


def _heads(keys):
    """Mask of the first row of each run of equal values in sorted ``keys``."""
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    return head


# Complex arithmetic on (re, im) float64 pairs, written as CPython's
# complex ``*`` and ``/`` so results match the scalar loops bit for bit
# (numpy's complex128 ops differ in the last bit); ``np.hypot`` is abs().

def cmul(x, y):
    (xr, xi), (yr, yi) = x, y
    return xr * yr - xi * yi, xr * yi + xi * yr


def cconj(x):
    return x[0], -x[1]


def cquot(x, y):
    """x / y by CPython's two-branch formula, and 0 where y is 0 (a
    quotient by a missing entry)."""
    (xr, xi), (yr, yi) = x, y
    out_r = np.full(len(xr), np.nan)
    out_i = np.full(len(xr), np.nan)
    zero = (yr == 0) & (yi == 0)
    out_r[zero] = out_i[zero] = 0.0
    by_real = ~zero & (np.abs(yr) >= np.abs(yi))
    ratio = yi[by_real] / yr[by_real]
    denom = yr[by_real] + yi[by_real] * ratio
    out_r[by_real] = (xr[by_real] + xi[by_real] * ratio) / denom
    out_i[by_real] = (xi[by_real] - xr[by_real] * ratio) / denom
    by_imag = ~zero & ~by_real & (np.abs(yi) >= np.abs(yr))  # neither: a NaN part
    ratio = yr[by_imag] / yi[by_imag]
    denom = yr[by_imag] * ratio + yi[by_imag]
    out_r[by_imag] = (xr[by_imag] * ratio + xi[by_imag]) / denom
    out_i[by_imag] = (xi[by_imag] * ratio - xr[by_imag]) / denom
    return out_r, out_i


def sum_in_order(size, rows, term):
    """(re, im) per row of ``range(size)``: 0, then += each (re, im) ``term``
    of the row, in order; ``rows`` is ascending."""
    total = np.zeros(size), np.zeros(size)
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    for j in range(int(rank.max(initial=-1)) + 1):
        at = rank == j
        for part, add in zip(total, term):
            part[rows[at]] = part[rows[at]] + add[at]
    return total


def _h_sum(index, a, b, c, d, f, g, e, l, k):
    """(re, im) per tuple of the pentagon's right side, summed as the scalar
    loop does: 0j, then += the term F(a,b,c;g)_{f,h} F(a,h,d;e)_{g,k}
    F(b,c,d;k)_{h,l} of each h in b (x) c, in outcome order."""
    size = len(b)
    rows, h = index.outcomes(b, c)
    b, c, d, f, g, e, l, k = _take(rows, b, c, d, f, g, e, l, k)
    term = cmul(cmul(index.f(a, b, c, g, f, h), index.f(a, h, d, e, g, k)),
                index.f(b, c, d, k, h, l))
    return sum_in_order(size, rows, term)


def check_pentagon(theory, max_nontrivial_defects=4, tol=DEFAULT_TOL):
    """Associativity coherence over all admissible charge tuples.

    With ``max_nontrivial_defects = 3`` the sweep skips tuples whose four
    fused charges all carry nontrivial grades; that restricted equation is
    exactly what torsor wellformedness requires of its input.
    """
    rep = ConsistencyReport("pentagon")
    index = theory_index(theory)
    for a in theory.charges():
        b, c, d, f, g, e, l, k = index.pentagon_tuples(a, 0, max_nontrivial_defects)
        if not len(b):
            continue
        lhs = cmul(index.f(f, c, d, e, g, l), index.f(a, b, l, e, f, k))
        rhs = _h_sum(index, a, b, c, d, f, g, e, l, k)
        _record(rep, (np.full(len(b), a), b, c, d, e, f, g, k, l), lhs, rhs,
                tol, loop_keys=(k, l, e, g, f, d, c, b))
    return rep


def check_hexagon(theory, tol=DEFAULT_TOL):
    """Both hexagon variants on the identity-graded sector."""
    rep = ConsistencyReport("hexagon")
    ident = theory.group.identity
    sector = [x for x in theory.charges() if theory.grade(x) == ident]
    fz = theory.f_or_zero
    rz = theory.r_entries().get
    for a, b, c in itertools.product(sector, repeat=3):
        for e in theory.fusion_outcomes(a, c):
            for g in theory.fusion_outcomes(b, c):
                for d in theory.fusion_outcomes(e, b):
                    if not theory.n(a, g, d):
                        continue
                    lhs = (rz((a, c, e), 0j) * fz(a, c, b, d, e, g)
                           * rz((b, c, g), 0j))
                    lhs_inv = (rz((c, a, e), 0j).conjugate()
                               * fz(a, c, b, d, e, g)
                               * rz((c, b, g), 0j).conjugate())
                    rhs = 0j
                    rhs_inv = 0j
                    for f in theory.fusion_outcomes(a, b):
                        if not theory.n(f, c, d):
                            continue
                        common = fz(c, a, b, d, e, f) * fz(a, b, c, d, f, g)
                        rhs += common * rz((f, c, d), 0j)
                        rhs_inv += common * rz((c, f, d), 0j).conjugate()
                    rep.record((a, b, c, d, e, g, "+"), lhs, rhs, tol)
                    rep.record((a, b, c, d, e, g, "-"), lhs_inv, rhs_inv, tol)
    return rep


def check_heptagons(theory, tol=DEFAULT_TOL):
    """Both braiding coherence equations; returns [plus, minus] reports.

    Both sweep the charges (a, b, c) of grades (g, h, k) in product order.
    The counterclockwise equation has labels a_g, b_h, c_k, d_ghk, e_gk,
    g_hk and moves b to b_k = k^-1 . b; the clockwise one has labels a_g,
    b_h, c_k, d_kgh, e_kg, g_{g^-1 k g h} and moves c to c_g = g^-1 . c and
    c_gh = (gh)^-1 . c.  The right sides sum over f in a (x) b.
    """
    ix = theory_index(theory)
    n = ix.n
    base = np.indices((n, n, n)).reshape(3, -1)

    # counterclockwise
    a, b, c = base
    kbar = ix.inv[ix.grade[c]]
    b_k = ix.act[kbar, b]
    a, b, c, kbar, b_k, e = ix.expand(a, c, a, b, c, kbar, b_k)
    a, b, c, kbar, b_k, e, g = ix.expand(b, c, a, b, c, kbar, b_k, e)
    a, b, c, kbar, b_k, e, g, d = ix.expand(e, b_k, a, b, c, kbar, b_k, e, g)
    a, b, c, kbar, b_k, e, g, d = _take(ix.admissible(a, g, d),
                                        a, b, c, kbar, b_k, e, g, d)
    lhs = cmul(cmul(ix.r(a, c, e), ix.f(a, c, b_k, d, e, g)), ix.r(b, c, g))
    rows, f = ix.outcomes(a, b)
    keep = ix.admissible(f, c[rows], d[rows])
    rows, f = rows[keep], f[keep]
    ta, tb, tc, td, te, tg, tkbar, tb_k = _take(rows, a, b, c, d, e, g, kbar, b_k)
    term = cmul(cmul(cmul(
        ix.f(tc, ix.act[tkbar, ta], tb_k, td, te, ix.act[tkbar, f]),
        ix.u(ix.grade[tc], ta, tb, f)), ix.r(f, tc, td)),
        ix.f(ta, tb, tc, td, f, tg))
    plus = ConsistencyReport("heptagon+")
    _record(plus, (a, b, c, d, e, g), lhs, sum_in_order(len(a), rows, term), tol)

    # clockwise
    a, b, c = base
    gg, hh = ix.grade[a], ix.grade[b]
    c_g = ix.act[ix.inv[gg], c]
    c_gh = ix.act[ix.inv[ix.mult[gg, hh]], c]
    a, b, c, c_g, c_gh, e = ix.expand(c, a, a, b, c, c_g, c_gh)
    a, b, c, c_g, c_gh, e, g = ix.expand(c_g, b, a, b, c, c_g, c_gh, e)
    a, b, c, c_g, c_gh, e, g, d = ix.expand(e, b, a, b, c, c_g, c_gh, e, g)
    a, b, c, c_g, c_gh, e, g, d = _take(ix.admissible(a, g, d),
                                        a, b, c, c_g, c_gh, e, g, d)
    lhs = cmul(cmul(cconj(ix.r(c, a, e)), ix.f(a, c_g, b, d, e, g)),
               cconj(ix.r(c_g, b, g)))
    rows, f = ix.outcomes(a, b)
    keep = ix.admissible(c[rows], f, d[rows])
    rows, f = rows[keep], f[keep]
    ta, tb, tc, td, te, tg, tc_gh = _take(rows, a, b, c, d, e, g, c_gh)
    term = cmul(cmul(cmul(
        ix.f(tc, ta, tb, td, te, f),
        ix.eta(tc, ix.grade[ta], ix.grade[tb])), cconj(ix.r(tc, f, td))),
        ix.f(ta, tb, tc_gh, td, f, tg))
    minus = ConsistencyReport("heptagon-")
    _record(minus, (a, b, c, d, e, g), lhs, sum_in_order(len(a), rows, term), tol)
    return [plus, minus]


def check_eta_associativity(theory, tol=DEFAULT_TOL):
    """Projective local-action phases compose across group multiplication:
    eta_x(g, h) eta_x(gh, k) = eta_x(g, hk) eta_{g^-1 . x}(h, k), over every
    charge x and group elements g, h, k in product order."""
    ix = theory_index(theory)
    x, g, h, k = np.indices((ix.n,) + (ix.order,) * 3).reshape(4, -1)
    lhs = cmul(ix.eta(x, g, h), ix.eta(x, ix.mult[g, h], k))
    rhs = cmul(ix.eta(x, g, ix.mult[h, k]), ix.eta(ix.act[ix.inv[g], x], h, k))
    rep = ConsistencyReport("eta-assoc")
    _record(rep, (x, g, h, k), lhs, rhs, tol)
    return rep


def check_kappa_sliding(theory, tol=DEFAULT_TOL):
    """Decomposition of the composite sheet phase into local eta factors:
    eta_a(g, h) eta_b(g, h) / eta_c(g, h) against the conjugates of
    U_g(a, b; c) and U_h(g^-1 . a, g^-1 . b; g^-1 . c) times U_gh(a, b; c),
    over the fusion triples (a, b, c), then g, then h."""
    ix = theory_index(theory)
    i, g, h = np.indices((len(ix.triples), ix.order, ix.order)).reshape(3, -1)
    a, b, c = ix.triples[i].T
    gbar = ix.inv[g]
    lhs = cquot(cmul(ix.eta(a, g, h), ix.eta(b, g, h)), ix.eta(c, g, h))
    rhs = cmul(cmul(cconj(ix.u(g, a, b, c)),
                    cconj(ix.u(h, ix.act[gbar, a], ix.act[gbar, b],
                               ix.act[gbar, c]))),
               ix.u(ix.mult[g, h], a, b, c))
    rep = ConsistencyReport("kappa-sliding")
    _record(rep, (a, b, c, g, h), lhs, rhs, tol)
    return rep


_TORSORABLE_CACHE = weakref.WeakKeyDictionary()


def base_theory_torsorable(theory, tol=DEFAULT_TOL):
    """Residual of the conditions a torsor application needs of its input."""
    cached = _TORSORABLE_CACHE.get(theory)
    if cached is not None:
        return cached
    worst = check_pentagon(theory, 3, tol).worst_residual
    for rep in check_heptagons(theory, tol):
        worst = max(worst, rep.worst_residual)
    _TORSORABLE_CACHE[theory] = worst
    return worst


def defectification_obstruction(theory, tol=DEFAULT_TOL, root_order=1):
    """Phase by which the four-defect pentagon fails, per grade 4-tuple.

    The phase of an admissible charge assignment is the pentagon's right
    side, summed over h, over its two-F side.  Every assignment for a given
    grade tuple must produce the same phase; disagreement beyond
    max(tol, 1e-9) raises, since it means the three-defect consistency
    precondition did not actually hold.  ``root_order`` only tags the root
    order of the returned cochain's module for downstream exact solving.  An
    assignment whose two-F side |F(a,b,r;p) F(x,c,d;p)| is below 1e-12 gives
    no phase and is skipped.
    """
    group = theory.group
    nonidentity = group.nonidentity()
    m = len(nonidentity)
    slot = {g: i for i, g in enumerate(nonidentity)}
    slots = np.array([slot.get(g, -1) for g in theory.grades], dtype=np.int64)
    index = theory_index(theory)
    # grade tuples are numbered in itertools.product order; per number, the
    # first phase in the loop order a, b, x, c, z, d, p, r, q of the
    # pentagon labels (x, z, p, r, q) = (f, g, e, l, k)
    found = {}
    clash = {}
    for a in theory.charges():
        b, c, d, f, g, e, l, k = index.pentagon_tuples(a, 4, 4)
        b, c, d, f, g, e, l, k = _take(index.admissible(f, l, e),
                                       b, c, d, f, g, e, l, k)
        num = _h_sum(index, a, b, c, d, f, g, e, l, k)
        den = cmul(index.f(a, b, l, e, f, k), index.f(f, c, d, e, g, l))
        keep = ~(np.hypot(*den) < 1e-12)
        if not keep.any():
            continue
        b, c, d, f, g, e, l, k = _take(keep, b, c, d, f, g, e, l, k)
        num, den = _take(keep, *num), _take(keep, *den)
        grade_no = ((slots[a] * m + slots[b]) * m + slots[c]) * m + slots[d]
        order = np.lexsort((k, l, e, d, g, c, f, b, grade_no))
        grade_no = grade_no[order]
        val_r, val_i = cquot(_take(order, *num), _take(order, *den))
        head = _heads(grade_no)
        numbers = grade_no[head].tolist()
        for no, i in zip(numbers, np.flatnonzero(head).tolist()):
            found.setdefault(no, complex(val_r[i], val_i[i]))
        ref = np.cumsum(head) - 1
        ref_r = np.array([found[no].real for no in numbers])[ref]
        ref_i = np.array([found[no].imag for no in numbers])[ref]
        far = np.flatnonzero(
            np.hypot(val_r - ref_r, val_i - ref_i) > max(tol, 1e-9))
        for i in far[_heads(grade_no[far])].tolist():
            clash.setdefault(int(grade_no[i]), complex(val_r[i], val_i[i]))
    grade_tuples = list(itertools.product(nonidentity, repeat=4))
    if clash:
        no = min(clash)
        raise RepresentativeDependent(
            f"pentagon defect at grades {grade_tuples[no]} "
            f"depends on the charge assignment: {clash[no]} vs {found[no]}")
    values = {gt: found.get(no, complex(1.0))
              for no, gt in enumerate(grade_tuples)}
    cochain = Cochain(theory.group, 4, U1Module(root_order), values)
    validate_cocycle(cochain, max(tol, 1e-7), degree=4)
    return cochain
