"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else."""

import cmath

import pytest

from gxbtc import category as cat
from gxbtc import compose as cmp
from gxbtc import consistency as con
from gxbtc import constructions as cons
from gxbtc import equivalence as eq
from gxbtc import torsor
from gxbtc.errors import NotACocycle
from gxbtc.groups import Cochain, FiniteGroup, U1Module, cohomology

import oracles

Z2 = FiniteGroup.cyclic(2)
Z3 = FiniteGroup.cyclic(3)
TOL = 1e-9


def report(number, label, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {label}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {label} {detail}"


@pytest.fixture(scope="module")
def bases():
    return {
        "toric_code": cons.trivial_extension(cons.toric_code(), Z2),
        "semion": cons.trivial_extension(cons.semion(), Z2),
        "double_semion": cons.trivial_extension(cons.double_semion(), Z2),
        "z4_anyons": cons.trivial_extension(cons.z4_anyons(), Z2),
    }


def twists_of(theory):
    module = cat.abelian_subgroup(theory)
    out = []
    for a in module.charges:
        if a == theory.vacuum:
            out.append(Cochain.identity(theory.group, 2, module))
        else:
            out.append(Cochain(theory.group, 2, module, {(1, 1): a}))
    return out


def test_criterion_1_consistency_closure(bases):
    worst = 0.0
    checked = 0
    for name, base in bases.items():
        for t in twists_of(base):
            x = torsor.solve_cocycleator(base, t)
            assert x is not None, f"{name}: twist unexpectedly obstructed"
            out = torsor.apply_torsor(base, t, x)
            residuals = [con.check_pentagon(out).worst_residual]
            residuals += [r.worst_residual for r in con.check_heptagons(out)]
            residuals.append(con.check_eta_associativity(out).worst_residual)
            residuals.append(con.check_kappa_sliding(out).worst_residual)
            worst = max(worst, max(residuals))
            checked += 1
    report(1, "twisted extensions satisfy all consistency equations",
           worst < TOL, f"{checked} theories, worst residual {worst:.2e}")


def test_criterion_2_relative_obstruction_is_cocycle(bases):
    worst = 0.0
    for base in bases.values():
        for t in twists_of(base):
            orr = torsor.relative_obstruction(base, t)
            defect = orr.coboundary()
            for args in defect.support():
                worst = max(worst, abs(defect(*args) - 1.0))
    report(2, "relative obstruction is closed on every fixture twist",
           worst < TOL, f"worst coboundary defect {worst:.2e}")


def test_criterion_3_coboundary_collapse(bases):
    base = bases["toric_code"]
    module = cat.abelian_subgroup(base)
    worst_match = 0.0
    worst_inverse = 0.0
    for value in module.charges:
        z = (Cochain.identity(Z2, 1, module) if value == base.vacuum
             else Cochain(Z2, 1, module, {(1,): value}))
        coeffs, gauge = oracles.coboundary_equivalence(base, z)
        twisted = torsor.apply_torsor(base, z.coboundary(), coeffs)
        relabeled = eq.relabel_by_1cochain(base, z)
        worst_match = max(worst_match, cat.tables_distance(
            eq.apply_gauge(relabeled, gauge), twisted))
        orr = torsor.relative_obstruction(base, z.coboundary())
        product = coeffs.coboundary().combine(orr)
        for args in product.support():
            worst_inverse = max(worst_inverse, abs(product(*args) - 1.0))
    report(3, "1-cochain relabelings equal coboundary twists up to gauge",
           worst_match < TOL and worst_inverse < TOL,
           f"match {worst_match:.2e}, inverse defect {worst_inverse:.2e}")


def test_criterion_4_composition_theorem(bases):
    base = bases["toric_code"]
    worst = 0.0
    worst_comm = 0.0
    pairs = 0
    twists = twists_of(base)
    solved = {id(t): torsor.solve_cocycleator(base, t) for t in twists}
    mids = {id(t): torsor.apply_torsor(base, t, solved[id(t)]) for t in twists}
    for t1 in twists:
        first = torsor.TorsorInput(t1, solved[id(t1)])
        mid = mids[id(t1)]
        for t2 in twists:
            x2 = torsor.solve_cocycleator(mid, t2)
            second = torsor.TorsorInput(t2, x2)
            sequential = torsor.apply_torsor(mid, second.t, second.x)
            composite, gauge = cmp.compose_torsors(base, first, second)
            single = torsor.apply_torsor(base, composite.t, composite.x)
            worst = max(worst, cat.tables_distance(
                eq.apply_gauge(single, gauge), sequential))
            comm = cmp.commutator_class(base, t1, t2)
            worst_comm = max(worst_comm, comm.residual)
            pairs += 1
    report(4, "sequential twists equal the gauged composite twist",
           worst < TOL and worst_comm < TOL,
           f"{pairs} ordered pairs, worst {worst:.2e}, "
           f"commutator witness {worst_comm:.2e}")


def test_criterion_5_closed_form_oracle(bases):
    worst = 0.0
    grid_points = 0
    coeff_values = [complex(1.0), complex(-1.0), 1j,
                    cmath.exp(0.25j * cmath.pi)]
    for name, c0 in [("toric_code", cons.toric_code()),
                     ("semion", cons.semion())]:
        ext = bases[name]
        for t in twists_of(ext):
            for val in coeff_values:
                x = Cochain(Z2, 3, U1Module(16), {(1, 1, 1): val})
                closed = oracles.trivial_action_closed_forms(c0, Z2, t, x)
                piped = torsor.apply_torsor(ext, t, x)
                worst = max(worst, cat.tables_distance(closed, piped))
                grid_points += 1
    report(5, "closed-form twisted data matches the generic pipeline",
           worst < TOL, f"{grid_points} grid points, worst {worst:.2e}")


def test_criterion_6_spt_algebra():
    h3 = cohomology(Z2, 3, U1Module(8))
    classes = h3.all_classes()
    ok_consistency = True
    for alpha in classes:
        spt = cons.build_spt(Z2, alpha)
        ok_consistency &= con.check_pentagon(spt).passed(TOL)
        for rep in con.check_heptagons(spt):
            ok_consistency &= rep.passed(TOL)
    # group law up to gauge: gluing a coboundary is gauge-trivial
    eps = Cochain(Z2, 2, U1Module(8), {(1, 1): 1j})
    spt_triv = cons.build_spt(Z2, Cochain.identity(Z2, 3, U1Module(8)))
    spt_db = cons.build_spt(Z2, eps.coboundary())
    witness = eq.theories_equivalent(spt_db, spt_triv)
    ok_group_law = witness is not None
    for a1 in classes:
        for a2 in classes:
            lhs = cons.glue_spt(cons.build_spt(Z2, a1), a2)
            rhs = cons.build_spt(Z2, a1.combine(a2))
            ok_group_law &= eq.theories_equivalent(lhs, rhs) is not None
    # gluing is exactly the trivial-twist functor with cocycle coefficients
    base = cons.trivial_extension(cons.toric_code(), Z2)
    exact = True
    for alpha in classes:
        glued = cons.glue_spt(base, alpha)
        twisted = torsor.apply_torsor(base, oracles.trivial_twist(base), alpha)
        exact &= cat.tables_distance(glued, twisted) == 0.0
    report(6, "one-charge-per-grade theories form the coefficient torsor",
           ok_consistency and ok_group_law and exact)


def test_criterion_7_identity_grade_restriction(bases):
    exact = True
    for base in bases.values():
        module = cat.abelian_subgroup(base)
        ident = base.group.identity
        for t in twists_of(base):
            out = torsor.apply_torsor(base, t)
            for (x0, g, h), val in out.eta_entries().items():
                if base.grade(x0) == ident:
                    expected = base.eta_symbol(x0, g, h) * cat.monodromy(
                        base, x0, t(g, h))
                    exact &= val == expected
            for key, val in base.f_entries().items():
                if all(base.grade(c) == ident for c in key[:3]):
                    exact &= out.f_entries()[key] == val
            for key, val in base.r_entries().items():
                if all(base.grade(c) == ident for c in key[:2]):
                    exact &= out.r_entries()[key] == val
            for (k, a, b, c), val in base.u_entries().items():
                if base.grade(a) == ident and base.grade(b) == ident:
                    exact &= out.u_entries()[(k, a, b, c)] == val
    report(7, "identity-sector data is exactly preserved (eta up to monodromy)",
           exact)


def test_criterion_8_cohomology_engine():
    checks = []
    from gxbtc.groups import AbelianModule

    h = cohomology(Z2, 2, AbelianModule([2], Z2))
    count, _, _ = oracles.brute_abelian_cohomology_classes(Z2, 2, (2,))
    checks.append(h.orders == [2] and count == 2)

    h = cohomology(Z2, 3, U1Module(8))
    count, _ = oracles.brute_u1_cohomology_classes(Z2, 3, 2)
    checks.append(h.orders == [2] and count == 2)

    h = cohomology(Z2, 4, U1Module(8))
    count, _ = oracles.brute_u1_cohomology_classes(Z2, 4, 2)
    checks.append(h.orders == [] and count == 1)

    h = cohomology(Z3, 3, U1Module(24))
    count, _ = oracles.brute_u1_cohomology_classes(Z3, 3, 3)
    checks.append(h.orders == [3] and count == 3)

    report(8, "Smith-form cohomology matches enumeration on Z2 and Z3",
           all(checks), f"four group/degree combinations, {checks}")


def test_criterion_9_negative_controls(bases):
    kick = cmath.exp(1e-3j)
    base = bases["semion"]

    def detected(theory):
        if not con.check_pentagon(theory).passed(TOL):
            return True
        if any(not r.passed(TOL) for r in con.check_heptagons(theory)):
            return True
        if not con.check_eta_associativity(theory).passed(TOL):
            return True
        if not con.check_kappa_sliding(theory).passed(TOL):
            return True
        return False

    missed = []
    for table in ("f", "r", "u", "eta"):
        entries = dict(getattr(base, f"{table}_entries")())
        for key in entries:
            perturbed = dict(entries)
            perturbed[key] = perturbed[key] * kick
            if not detected(base.replace(**{table: perturbed})):
                missed.append((table, key))
    ok_perturbation = not missed

    module = cat.abelian_subgroup(bases["toric_code"])
    z22 = FiniteGroup.from_cyclic_factors([2, 2])
    ext22 = cons.trivial_extension(cons.toric_code(), z22)
    mod22 = cat.abelian_subgroup(ext22)
    bad = Cochain.from_function(
        z22, 2, mod22,
        lambda g, h: 1 if (g, h) == (1, 1) else ext22.vacuum)
    try:
        torsor.validate_two_cocycle(ext22, bad)
        ok_rejection = False
    except NotACocycle:
        ok_rejection = True

    h4 = cohomology(z22, 4, U1Module(8))
    synthetic = h4.representatives[0]
    ok_obstructed = torsor.solve_coefficients_for(synthetic) is None

    report(9, "single perturbations, bad twists, and nontrivial classes "
           "are all caught",
           ok_perturbation and ok_rejection and ok_obstructed,
           f"missed={missed[:4]}")
