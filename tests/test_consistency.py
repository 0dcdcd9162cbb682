import functools
import itertools

import pytest
from hypothesis import given, settings

from gxbtc import category as cat
from gxbtc import consistency as con
from gxbtc import constructions as cons
from gxbtc import torsor
from gxbtc.errors import GxError
from gxbtc.groups import Cochain, FiniteGroup, U1Module, is_cocycle

import oracles
import solver_oracle
import strategies

Z2 = FiniteGroup.cyclic(2)
TOL = 1e-9


def spt_z2(sign):
    alpha = Cochain(Z2, 3, U1Module(2), {(1, 1, 1): complex(sign)})
    return cons.build_spt(Z2, alpha)


def test_report_keeps_first_failures_only():
    rep = con.ConsistencyReport("x")
    for i in range(con.MAX_FAILURES + 8):
        rep.record((i,), 1.0, 0.0, TOL)
    rep.record(("ok",), 1.0, 1.0, TOL)
    assert rep.checked == con.MAX_FAILURES + 9
    assert [idx for idx, _, _ in rep.failures] == [(i,) for i in range(32)]
    assert [f["index"] for f in rep.to_json()["failures"]] == [[str(i)] for i in range(32)]


class TestPentagon:
    def test_fixtures_pass(self, toric, semion_theory, double_semion_theory,
                           z4_theory, fib):
        for theory in [toric, semion_theory, double_semion_theory, z4_theory, fib]:
            rep = con.check_pentagon(theory)
            assert rep.passed(TOL), (theory, rep.failures[:3])

    def test_extensions_pass(self, toric_z2, semion_z2):
        for theory in [toric_z2, semion_z2]:
            assert con.check_pentagon(theory).passed(TOL)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_spt_passes(self, sign):
        assert con.check_pentagon(spt_z2(sign)).passed(TOL)

    def test_non_cocycle_spt_fails_by_alpha_defect(self):
        # a 3-cochain valued in mu_4 that is not closed
        chi = Cochain(Z2, 3, U1Module(4), {(1, 1, 1): 1j})
        assert not is_cocycle(chi)
        theory = cons._build_spt_unchecked(Z2, chi)
        rep = con.check_pentagon(theory)
        assert not rep.passed(TOL)
        defect = chi.coboundary()
        worst = max(abs(defect(*args) - 1.0) for args in defect.support())
        assert abs(rep.worst_residual - worst) < 1e-9


class TestHexagon:
    def test_fixtures_pass(self, toric, semion_theory, double_semion_theory,
                           z4_theory, fib):
        for theory in [toric, semion_theory, double_semion_theory, z4_theory, fib]:
            rep = con.check_hexagon(theory)
            assert rep.passed(TOL), (theory, rep.failures[:3])

    def test_semion_with_flipped_r_fails(self, semion_theory):
        r = dict(semion_theory.r_entries())
        r[(1, 1, 0)] = complex(1.0)
        broken = semion_theory.replace(r=r)
        assert not con.check_hexagon(broken).passed(TOL)

    def test_semion_pinned_by_bruteforce_solver(self, semion_theory):
        # free entries: F(s,s,s) over mu_8 and R(s,s) over mu_8
        fuse = lambda a, b: (a + b) % 2
        charges = [0, 1]
        sols = solver_oracle.search_solutions(
            fuse, charges,
            solver_oracle.grid_f_candidates(charges, [(1, 1, 1)], 8),
            solver_oracle.grid_r_candidates(charges, [(1, 1)], 8))
        ours = (semion_theory.f_symbol(1, 1, 1, 1, 0, 0),
                semion_theory.r_symbol(1, 1, 0))
        found = [(f[(1, 1, 1)], r[(1, 1)]) for f, r in sols]
        assert any(abs(fv - ours[0]) < 1e-9 and abs(rv - ours[1]) < 1e-9
                   for fv, rv in found)
        # the pentagon restricts F(s,s,s) to +/-1 in every solution
        assert all(abs(abs(fv.real) - 1.0) < 1e-9 for fv, _ in found)

    def test_toric_r_pinned_by_bruteforce_solver(self, toric):
        fuse = lambda a, b: a ^ b
        charges = [0, 1, 2, 3]
        f_one = [{t: complex(1.0) for t in itertools.product(charges, repeat=3)}]
        sols = solver_oracle.search_solutions(
            fuse, charges, f_one,
            solver_oracle.bilinear_r_candidates(
                [1, 2], lambda a: (a & 1, (a >> 1) & 1), charges, 4))
        pairs = list(itertools.product(charges, repeat=2))
        ours = {p: toric.r_symbol(p[0], p[1], p[0] ^ p[1]) for p in pairs}
        assert any(all(abs(r[p] - ours[p]) < 1e-9 for p in pairs)
                   for _, r in sols)


class TestHeptagons:
    def test_spt_passes(self):
        for sign in (1.0, -1.0):
            for rep in con.check_heptagons(spt_z2(sign)):
                assert rep.passed(TOL), rep.failures[:3]

    def test_trivial_extension_passes(self, toric_z2, semion_z2):
        for theory in [toric_z2, semion_z2]:
            for rep in con.check_heptagons(theory):
                assert rep.passed(TOL)

    def test_broken_u_detected(self, toric_z2):
        u = dict(toric_z2.u_entries())
        key = next(k for k in u if k[0] != 0)
        u[key] = u[key] * complex(-1.0)
        broken = toric_z2.replace(u=u)
        plus, _ = con.check_heptagons(broken)
        assert not plus.passed(TOL)


class TestEtaAssociativity:
    def test_spt_passes(self):
        for sign in (1.0, -1.0):
            assert con.check_eta_associativity(spt_z2(sign)).passed(TOL)

    def test_trivial_eta_passes(self, toric_z2):
        assert con.check_eta_associativity(toric_z2).passed(TOL)

    def test_single_perturbation_reported(self, toric_z2):
        # breaking a normalized entry eta_x(g, 0) violates associativity
        eta = dict(toric_z2.eta_entries())
        eta[(1, 1, 0)] = complex(-1.0)
        broken = toric_z2.replace(eta=eta)
        rep = con.check_eta_associativity(broken)
        assert not rep.passed(TOL)
        assert len(rep.failures) >= 1

    def test_bulk_eta_perturbation_caught_by_sliding(self, toric_z2):
        # eta_1(1,1) alone still satisfies associativity on Z2 with trivial
        # action, but the sheet-decomposition equation sees it
        eta = dict(toric_z2.eta_entries())
        eta[(1, 1, 1)] = complex(-1.0)
        broken = toric_z2.replace(eta=eta)
        assert con.check_eta_associativity(broken).passed(TOL)
        assert not con.check_kappa_sliding(broken).passed(TOL)


class TestKappaSliding:
    def test_spt_passes(self):
        for sign in (1.0, -1.0):
            assert con.check_kappa_sliding(spt_z2(sign)).passed(TOL)

    def test_trivial_passes(self, toric_z2):
        assert con.check_kappa_sliding(toric_z2).passed(TOL)

    def test_single_u_perturbation_reported(self, toric_z2):
        u = dict(toric_z2.u_entries())
        key = next(iter(u))
        u[key] = u[key] * 1j
        broken = toric_z2.replace(u=u)
        assert not con.check_kappa_sliding(broken).passed(TOL)


class TestDefectificationObstruction:
    def test_consistent_theory_has_trivial_phase(self, toric_z2):
        ob = con.defectification_obstruction(toric_z2)
        assert all(abs(ob(*args) - 1.0) < 1e-9 for args in ob.support())

    def test_output_is_four_cocycle(self, semion_z2):
        ob = con.defectification_obstruction(semion_z2)
        assert is_cocycle(ob, 1e-7)


class TestRepresentativeDependence:
    def test_incoherent_defect_phase_raises(self, toric_z2):
        from gxbtc import torsor
        from gxbtc import category as cat
        from gxbtc.errors import RepresentativeDependent

        module = cat.abelian_subgroup(toric_z2)
        t = Cochain(Z2, 2, module, {(1, 1): 3})
        ones = torsor.trivial_coefficients(toric_z2)
        out = torsor.apply_torsor(toric_z2, t, ones)
        f = dict(out.f_entries())
        key = next(k for k in f if all(out.grade(c) == 1 for c in k[:3])
                   and out.grade(k[3]) == 1)
        f[key] = f[key] * complex(-1.0)
        broken = out.replace(f=f)
        with pytest.raises(RepresentativeDependent):
            con.defectification_obstruction(broken)


def _toric_z2_twisted():
    # unit coefficients leave the relative obstruction in the four-defect
    # pentagon, so the defect phase has nontrivial entries
    base, t = strategies.toric_z2_twist()
    return torsor.apply_torsor(base, t, torsor.trivial_coefficients(base))


KERNEL_THEORIES = {name: functools.cache(build) for name, build in {
    "toric x Z2": lambda: strategies.toric_z2_twist()[0],
    "semion x Z2xZ2": lambda: strategies.semion_z2xz2_twist()[0],
    "fibonacci": cons.fibonacci,
    "fibonacci x Z2": lambda: strategies.fibonacci_z2_twist()[0],
    "fibonacci x Z3": lambda: cons.trivial_extension(
        cons.fibonacci(), FiniteGroup.cyclic(3)),
    "toric x Z2 twisted": _toric_z2_twisted,
}.items()}

# The pentagon loops cost seconds on 24 charges; the other sweeps also
# draw toric x S3, whose action moves charges between grades.
SWEEP_THEORIES = {
    **KERNEL_THEORIES,
    "toric x S3": lambda: strategies.toric_s3_twist()[0],
    "toric x S3 twisted": strategies.toric_s3_twisted,
}


def _defect_outcome(sweep, theory):
    try:
        return repr(sorted(sweep(theory).entries.items()))
    except GxError as exc:
        return f"{type(exc).__name__}: {exc}"


def _reports(sweep, theory):
    reports = sweep(theory)
    return repr([rep.to_json() for rep in
                 (reports if isinstance(reports, list) else [reports])])


class TestPentagonKernel:
    """The numpy kernel against the nested loops of tests/oracles.py, compared
    through repr so a last-bit or signed-zero difference fails."""

    @settings(max_examples=40, deadline=None)
    @given(strategies.perturbed(KERNEL_THEORIES))
    @pytest.mark.parametrize("cap", [3, 4])
    def test_report_matches_loops(self, cap, theory):
        assert repr(con.check_pentagon(theory, cap).to_json()) == \
            repr(oracles.loop_check_pentagon(theory, cap).to_json())

    @settings(max_examples=40, deadline=None)
    @given(strategies.perturbed(KERNEL_THEORIES))
    def test_defect_obstruction_matches_loops(self, theory):
        # equal entries, or the same RepresentativeDependent message
        assert _defect_outcome(con.defectification_obstruction, theory) == \
            _defect_outcome(oracles.loop_defectification_obstruction, theory)


class TestSweepKernels:
    """Heptagons, eta associativity and kappa sliding on the numpy index
    against the loops of tests/oracles.py, compared through repr."""

    @settings(max_examples=30, deadline=None)
    @given(strategies.perturbed(SWEEP_THEORIES))
    def test_heptagons_match_loops(self, theory):
        assert _reports(con.check_heptagons, theory) == \
            _reports(oracles.loop_check_heptagons, theory)

    @settings(max_examples=30, deadline=None)
    @given(strategies.perturbed(SWEEP_THEORIES))
    def test_eta_associativity_matches_loops(self, theory):
        assert _reports(con.check_eta_associativity, theory) == \
            _reports(oracles.loop_check_eta_associativity, theory)

    @settings(max_examples=30, deadline=None)
    @given(strategies.perturbed(SWEEP_THEORIES))
    def test_kappa_sliding_matches_loops(self, theory):
        assert _reports(con.check_kappa_sliding, theory) == \
            _reports(oracles.loop_check_kappa_sliding, theory)

    def test_missing_eta_fails_kappa_sliding(self, toric_z2):
        # eta_f(1, 1) divides the left side at (e, m; f): it reads as 0
        # there, a finite residual, and the equation fails
        eta = dict(toric_z2.eta_entries())
        del eta[(3, 1, 1)]
        rep = con.check_kappa_sliding(toric_z2.replace(eta=eta))
        assert not rep.passed(TOL)
        assert rep.worst_residual == pytest.approx(1.0)
        assert ((1, 2, 3, 1, 1), 0j, 1 + 0j) in rep.failures
