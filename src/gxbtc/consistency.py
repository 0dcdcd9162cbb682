"""Consistency equations of G-crossed theories and obstruction extraction.

Each checker sweeps every admissible index tuple, compares both sides of
its equation, and reports the worst residual together with the failing
tuples.  Sweeps are exhaustive; inputs are desk scale by design.

The pentagon sweeps (``check_pentagon``, and through it
``base_theory_torsorable``, and ``defectification_obstruction``) share one
numpy enumerator of admissible pentagon tuples, run in chunks of one first
charge.  Its complex arithmetic is written out on float64 parts as
CPython's complex ``*``, ``/`` and ``abs``, and its results are put back in
the nested-loop order, so reports and obstructions are bit-identical to the
scalar loops kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import RepresentativeDependent
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


class _PentagonIndex:
    """Admissible pentagon tuples of one theory, enumerated with numpy.

    Fusion triples sorted by (a, b, c) form a CSR index over the pair
    a*n + b, a dense mask of size n**3 answers N(a, b, c), and F values are
    looked up by ``searchsorted`` on sorted int64 key codes (n**6 stays
    below 2**63 for any desk-scale n); a missing key reads as 0.
    """

    def __init__(self, theory):
        n = self.n = theory.num_charges
        triples = np.array(theory.fusion_triples(), dtype=np.int64).reshape(-1, 3)
        pair = triples[:, 0] * n + triples[:, 1]
        self.ptr = np.searchsorted(pair, np.arange(n * n + 1))
        self.mid, self.out = triples[:, 1], triples[:, 2]
        self.mask = np.zeros(n ** 3, dtype=bool)
        self.mask[pair * n + self.out] = True
        keys = np.array(list(theory.f_entries()), dtype=np.int64).reshape(-1, 6)
        values = np.array(list(theory.f_entries().values()), dtype=complex)
        codes = self.code(*keys.T)
        order = np.argsort(codes, kind="stable")
        # a last, zero entry past every code: each searchsorted position is
        # valid, and a missing key is sent there
        self.codes = np.append(codes[order], np.iinfo(np.int64).max)
        self.re = np.append(values.real[order], 0.0)
        self.im = np.append(values.imag[order], 0.0)
        ident = theory.group.identity
        self.nontrivial = np.array([g != ident for g in theory.grades],
                                   dtype=np.int64)

    def code(self, *charges):
        acc = 0
        for x in charges:
            acc = acc * self.n + x
        return acc

    def f(self, *labels):
        """(re, im) arrays of F(a, b, c, d, e, f); 0 off the table."""
        code = self.code(*labels)
        pos = np.searchsorted(self.codes, code)
        pos[self.codes[pos] != code] = len(self.codes) - 1
        return self.re[pos], self.im[pos]

    def admissible(self, a, b, c):
        return self.mask[self.code(a, b, c)]

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

    def tuples(self, a, fewest, most):
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

def _mul(x, y):
    (xr, xi), (yr, yi) = x, y
    return xr * yr - xi * yi, xr * yi + xi * yr


def _quot(x, y):
    """x / y by CPython's two-branch formula; y must not be 0."""
    (xr, xi), (yr, yi) = x, y
    out_r = np.full(len(xr), np.nan)
    out_i = np.full(len(xr), np.nan)
    by_real = np.abs(yr) >= np.abs(yi)
    ratio = yi[by_real] / yr[by_real]
    denom = yr[by_real] + yi[by_real] * ratio
    out_r[by_real] = (xr[by_real] + xi[by_real] * ratio) / denom
    out_i[by_real] = (xi[by_real] - xr[by_real] * ratio) / denom
    by_imag = ~by_real & (np.abs(yi) >= np.abs(yr))  # neither: a NaN part
    ratio = yr[by_imag] / yi[by_imag]
    denom = yr[by_imag] * ratio + yi[by_imag]
    out_r[by_imag] = (xr[by_imag] * ratio + xi[by_imag]) / denom
    out_i[by_imag] = (xi[by_imag] * ratio - xr[by_imag]) / denom
    return out_r, out_i


def _h_sum(index, a, b, c, d, f, g, e, l, k):
    """(re, im) per tuple of the pentagon's right side, summed as the scalar
    loop does: 0j, then += the term F(a,b,c;g)_{f,h} F(a,h,d;e)_{g,k}
    F(b,c,d;k)_{h,l} of each h in b (x) c, in outcome order."""
    total = np.zeros(len(b)), np.zeros(len(b))
    rows, h = index.outcomes(b, c)
    b, c, d, f, g, e, l, k = _take(rows, b, c, d, f, g, e, l, k)
    term = _mul(_mul(index.f(a, b, c, g, f, h), index.f(a, h, d, e, g, k)),
                index.f(b, c, d, k, h, l))
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    for j in range(int(rank.max(initial=-1)) + 1):
        at = rank == j
        for part, add in zip(total, term):
            part[rows[at]] = part[rows[at]] + add[at]
    return total


def check_pentagon(theory, max_nontrivial_defects=4, tol=DEFAULT_TOL):
    """Associativity coherence over all admissible charge tuples.

    With ``max_nontrivial_defects = 3`` the sweep skips tuples whose four
    fused charges all carry nontrivial grades; that restricted equation is
    exactly what torsor wellformedness requires of its input.
    """
    rep = ConsistencyReport("pentagon")
    index = _PentagonIndex(theory)
    for a in theory.charges():
        b, c, d, f, g, e, l, k = index.tuples(a, 0, max_nontrivial_defects)
        rep.checked += len(b)
        if not len(b):
            continue
        lhs = _mul(index.f(f, c, d, e, g, l), index.f(a, b, l, e, f, k))
        rhs = _h_sum(index, a, b, c, d, f, g, e, l, k)
        residual = np.hypot(lhs[0] - rhs[0], lhs[1] - rhs[1])
        rep.worst_residual = max(rep.worst_residual,
                                 float(np.fmax.reduce(residual, initial=0.0)))
        room = MAX_FAILURES - len(rep.failures)
        failing = np.flatnonzero(residual > tol)
        if room and len(failing):
            keys = _take(failing, k, l, e, g, f, d, c, b)
            for i in failing[np.lexsort(keys)[:room]].tolist():
                rep.failures.append((
                    (a, *(int(x[i]) for x in (b, c, d, e, f, g, k, l))),
                    complex(lhs[0][i], lhs[1][i]), complex(rhs[0][i], rhs[1][i])))
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
    """Both braiding coherence equations; returns [plus, minus] reports."""
    plus = ConsistencyReport("heptagon+")
    minus = ConsistencyReport("heptagon-")
    group = theory.group
    fz = theory.f_or_zero
    rz = theory.r_entries().get
    uz = theory.u_entries().get
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
                                * theory.eta_symbol(c, gg, hh)
                                * rz((c, f, d), 0j).conjugate()
                                * fz(a, b, c_gh, d, f, gout))
                    minus.record((a, b, c, d, e, gout), lhs, rhs, tol)
    return [plus, minus]


def check_eta_associativity(theory, tol=DEFAULT_TOL):
    """Projective local-action phases compose across group multiplication."""
    rep = ConsistencyReport("eta-assoc")
    group = theory.group
    for x in theory.charges():
        for g, h, k in itertools.product(group.elements(), repeat=3):
            lhs = theory.eta_symbol(x, g, h) * theory.eta_symbol(x, group.op(g, h), k)
            xg = theory.act(group.inverse(g), x)
            rhs = theory.eta_symbol(x, g, group.op(h, k)) * theory.eta_symbol(xg, h, k)
            rep.record((x, g, h, k), lhs, rhs, tol)
    return rep


def check_kappa_sliding(theory, tol=DEFAULT_TOL):
    """Decomposition of the composite sheet phase into local eta factors."""
    rep = ConsistencyReport("kappa-sliding")
    group = theory.group
    for a, b, c in theory.fusion_triples():
        for g in group.elements():
            gbar = group.inverse(g)
            ag, bg, cg = theory.act(gbar, a), theory.act(gbar, b), theory.act(gbar, c)
            for h in group.elements():
                lhs = (theory.eta_symbol(a, g, h) * theory.eta_symbol(b, g, h)
                       / theory.eta_symbol(c, g, h))
                rhs = (theory.u_symbol(g, a, b, c).conjugate()
                       * theory.u_symbol(h, ag, bg, cg).conjugate()
                       * theory.u_symbol(group.op(g, h), a, b, c))
                rep.record((a, b, c, g, h), lhs, rhs, tol)
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
    index = _PentagonIndex(theory)
    # grade tuples are numbered in itertools.product order; per number, the
    # first phase in the loop order a, b, x, c, z, d, p, r, q of the
    # pentagon labels (x, z, p, r, q) = (f, g, e, l, k)
    found = {}
    clash = {}
    for a in theory.charges():
        b, c, d, f, g, e, l, k = index.tuples(a, 4, 4)
        b, c, d, f, g, e, l, k = _take(index.admissible(f, l, e),
                                       b, c, d, f, g, e, l, k)
        num = _h_sum(index, a, b, c, d, f, g, e, l, k)
        den = _mul(index.f(a, b, l, e, f, k), index.f(f, c, d, e, g, l))
        keep = ~(np.hypot(*den) < 1e-12)
        if not keep.any():
            continue
        b, c, d, f, g, e, l, k = _take(keep, b, c, d, f, g, e, l, k)
        num, den = _take(keep, *num), _take(keep, *den)
        grade_no = ((slots[a] * m + slots[b]) * m + slots[c]) * m + slots[d]
        order = np.lexsort((k, l, e, d, g, c, f, b, grade_no))
        grade_no = grade_no[order]
        val_r, val_i = _quot(_take(order, *num), _take(order, *den))
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
