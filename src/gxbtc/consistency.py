"""Consistency equations of G-crossed theories and obstruction extraction.

Each checker sweeps every admissible index tuple, compares both sides of
its equation, and reports the worst residual together with the failing
tuples.  Sweeps are exhaustive; inputs are desk scale by design.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field

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


def check_pentagon(theory, max_nontrivial_defects=4, tol=DEFAULT_TOL):
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


def defectification_obstruction(theory, tol=DEFAULT_TOL, rep_tol=None,
                                root_order=1):
    """Phase by which the four-defect pentagon fails, per grade 4-tuple.

    Every admissible charge assignment for a given grade tuple must produce
    the same phase; disagreement beyond ``rep_tol`` raises, since it means
    the three-defect consistency precondition did not actually hold.
    ``root_order`` only tags the root order of the returned cochain's module
    for downstream exact solving.
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
                                    for y in theory.fusion_outcomes(b, c):
                                        if not theory.n(a, y, z):
                                            continue
                                        for q in theory.fusion_outcomes(y, d):
                                            if not theory.n(a, q, p):
                                                continue
                                            for r in theory.fusion_outcomes(c, d):
                                                if not (theory.n(b, r, q)
                                                        and theory.n(x, r, p)):
                                                    continue
                                                num = (fz(a, b, c, z, x, y)
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

