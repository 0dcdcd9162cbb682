"""Gauge transformations, relabelings, and equivalence searches.

Gauge matching between two theories with identical fusion reduces to a
linear system for phase exponents: vertex phases and per-charge sheet
phases enter every table multiplicatively.  The solver works over the
circle group exactly (rational turns), so unsolvability is a proof of
inequivalence rather than a search failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import consistency, intlin
from .category import GxTheory, tables_distance
from .consistency import cmul, cquot
from .errors import (
    BudgetExceeded,
    GradeViolation,
    InvalidInput,
    MatchFailure,
    NotA1Cocycle,
)
from .groups import (
    DEFAULT_TOL,
    Cochain,
    is_cocycle,
    snap_turns,
    turn_phase,
)
from .torsor import _Lookups, _table_of, root_module


@dataclass
class GaugeTransform:
    """Vertex phases on splitting spaces plus sheet-action phases.

    ``vertex`` maps admissible (a, b, c) to a unit phase; ``sheet`` maps
    (charge, group element) pairs.  Missing entries default to 1, and the
    vacuum-line conventions are enforced on construction.
    """

    vertex: dict = field(default_factory=dict)
    sheet: dict = field(default_factory=dict)

    def gamma(self, a, b, c):
        return self.vertex.get((a, b, c), complex(1.0))

    def phase(self, a, g):
        return self.sheet.get((a, g), complex(1.0))

    def validate(self, theory):
        """Raise InvalidInput unless the vacuum-line rules hold to DEFAULT_TOL."""
        tol = DEFAULT_TOL
        vac = theory.vacuum
        ident = theory.group.identity
        ref = self.gamma(vac, vac, vac)
        for a in theory.charges():
            if abs(self.gamma(a, vac, a) - ref) > tol \
                    or abs(self.gamma(vac, a, a) - ref) > tol:
                raise InvalidInput("vertex phases break the vacuum-line rules")
            if abs(self.phase(a, ident) - 1.0) > tol:
                raise InvalidInput("sheet phase at the identity must be 1")
        for g in theory.group.elements():
            if abs(self.phase(vac, g) - 1.0) > tol:
                raise InvalidInput("sheet phase of the vacuum must be 1")
        return self


def _gauge_terms(theory):
    """How a gauge moves each symbol: (table, key, factors) per entry.

    Entries come in F, R, U, eta order, each table in its own entry order.
    The gauged entry is the product of ``factors`` taken left to right:
    ``None`` is the entry itself and ``(var, sign)`` a gauge phase,
    conjugated when ``sign`` is -1.  ``var`` is ``("v", (a, b, c))`` for a
    vertex phase and ``("s", (a, g))`` for a sheet phase.
    """
    grp = theory.group
    act = theory.act
    for key in theory.f_entries():
        a, b, c, d, e, f = key
        yield "f", key, ((("v", (a, b, e)), 1), (("v", (e, c, d)), 1), None,
                         (("v", (b, c, f)), -1), (("v", (a, f, d)), -1))
    for key in theory.r_entries():
        a, b, c = key
        h = theory.grade(b)
        yield "r", key, ((("v", (b, act(grp.inverse(h), a), c)), 1), None,
                         (("v", (a, b, c)), -1), (("s", (a, h)), 1))
    for key in theory.u_entries():
        k, a, b, c = key
        kbar = grp.inverse(k)
        moved = (act(kbar, a), act(kbar, b), act(kbar, c))
        yield "u", key, ((("v", moved), 1), None, (("v", (a, b, c)), -1),
                         (("s", (a, k)), 1), (("s", (b, k)), 1),
                         (("s", (c, k)), -1))
    for key in theory.eta_entries():
        x, g, h = key
        yield "eta", key, (None, (("s", (x, grp.op(g, h))), 1),
                           (("s", (act(grp.inverse(g), x), h)), -1),
                           (("s", (x, g)), -1))


def _tables(theory):
    return {"f": theory.f_entries(), "r": theory.r_entries(),
            "u": theory.u_entries(), "eta": theory.eta_entries()}


def apply_gauge(theory, gauge):
    """Transform all symbol tables by a gauge that keeps the vacuum-line
    rules (:meth:`GaugeTransform.validate`); fusion and action unchanged."""
    gauge.validate(theory)
    phases = {"v": gauge.vertex, "s": gauge.sheet}
    one = complex(1.0)
    old = _tables(theory)
    new = {table: {} for table in old}
    for table, key, factors in _gauge_terms(theory):
        value = None
        for factor in factors:
            if factor is None:
                term = old[table][key]
            else:
                (kind, label), sign = factor
                term = phases[kind].get(label, one)
                if sign < 0:
                    term = term.conjugate()
            value = term if value is None else value * term
        new[table][key] = value
    return theory.replace(**new)


# ---------------------------------------------------------------------------
# relabelings


@dataclass(frozen=True)
class Relabeling:
    """Permutation of charge labels: charge a becomes perm[a]."""

    perm: tuple

    def __call__(self, a):
        return self.perm[a]

    def inverse(self):
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return Relabeling(tuple(inv))

    def validate(self, theory):
        """Check that this permutes ``theory``'s charges within each grade."""
        if sorted(self.perm) != list(theory.charges()):
            raise InvalidInput("relabeling is not a permutation of the charges")
        for a in theory.charges():
            if theory.grade(self.perm[a]) != theory.grade(a):
                raise GradeViolation(
                    f"relabeling moves charge {a} across grades")
        return self


def relabel(theory, relabeling):
    """Conjugate every table by a permutation; grades move with the charges."""
    perm = relabeling.perm
    if sorted(perm) != list(theory.charges()):
        raise InvalidInput("relabeling is not a permutation of the charges")
    inv = relabeling.inverse().perm
    grades = tuple(theory.grade(inv[a]) for a in theory.charges())
    fusion = [(perm[a], perm[b], perm[c]) for a, b, c in theory.fusion_triples()]
    f = {(perm[a], perm[b], perm[c], perm[d], perm[e], perm[ff]): val
         for (a, b, c, d, e, ff), val in theory.f_entries().items()}
    r = {(perm[a], perm[b], perm[c]): val
         for (a, b, c), val in theory.r_entries().items()}
    u = {(k, perm[a], perm[b], perm[c]): val
         for (k, a, b, c), val in theory.u_entries().items()}
    eta = {(perm[x], g, h): val for (x, g, h), val in theory.eta_entries().items()}
    action = {g: tuple(perm[theory.act(g, inv[a])] for a in theory.charges())
              for g in theory.group.elements()}
    return GxTheory(theory.group, grades, perm[theory.vacuum], fusion,
                    f, r, u, eta, action, metadata=theory.metadata)


def relabeling_from_1cochain(theory, z):
    """The permutation a_g -> z(g) x a_g."""
    if z.degree != 1 or z.module.kind != "charges":
        raise InvalidInput("relabelings come from 1-cochains in abelian charges")
    perm = tuple(theory.translate(z(theory.grade(a)), a) for a in theory.charges())
    return Relabeling(perm).validate(theory)


def relabel_by_1cochain(theory, z):
    return relabel(theory, relabeling_from_1cochain(theory, z))


# ---------------------------------------------------------------------------
# exact gauge solving


class _NonRootRatio(Exception):
    """A table ratio is off the root-of-unity lattice; cannot decide exactly."""


def _phase_ratio_turns(target, source):
    """Ratio as an exact fraction of a turn; None if magnitudes differ.

    Magnitude mismatch soundly refutes a gauge (magnitudes are invariant);
    an unsnappable phase ratio is merely undecidable here and raises.
    """
    if abs(abs(target) - abs(source)) > 1e-9:
        return None
    turns = snap_turns(target / source, max_denominator=96, snap_tol=1e-7)
    if turns is None:
        raise _NonRootRatio(f"ratio {target / source!r} is not a small root of unity")
    return turns


def solve_gauge_matching(source, target, tol=DEFAULT_TOL):
    """Gauge with apply_gauge(source, gauge) == target, or None.

    Theories that differ in fusion, grades, or action give None.  Tables
    keyed differently raise InvalidInput: a theory is missing entries or
    has extra ones.  The returned None is a proof of gauge-inequivalence
    whenever every table ratio is a phase; a non-phase ratio also rules a
    gauge out (magnitudes are gauge invariant).

    Each entry of :func:`_gauge_terms` gives one integer row in the gauge
    phases' turns, equal to the entry's turn ratio; identical rows are
    kept once, and each distinct pair of values is snapped once.  The vertex phases come first, then the sheet phases;
    those on the vacuum line or at the identity are pinned to 1.
    """
    if source.grades != target.grades or source.action != target.action \
            or set(source.fusion_triples()) != set(target.fusion_triples()):
        return None
    ours, theirs = _tables(source), _tables(target)
    if any(ours[t].keys() != theirs[t].keys() for t in ours):
        raise InvalidInput("the theories' symbol tables are keyed differently")
    vac = source.vacuum
    index = {}
    for a, b, c in source.fusion_triples():
        if vac not in (a, b):
            index[("v", (a, b, c))] = len(index)
    for a in source.charges():
        if a != vac:
            for g in source.group.nonidentity():
                index[("s", (a, g))] = len(index)

    rows = {}
    ratios = {}  # the tables repeat a few phases: one snap per pair
    for table, key, factors in _gauge_terms(source):
        pair = theirs[table][key], ours[table][key]
        if pair not in ratios:
            ratios[pair] = _phase_ratio_turns(*pair)
        ratio = ratios[pair]
        if ratio is None:
            return None
        coeffs = {}
        for factor in factors:
            i = None if factor is None else index.get(factor[0])
            if i is not None:
                coeffs[i] = coeffs.get(i, 0) + factor[1]
        pattern = tuple(sorted((i, c) for i, c in coeffs.items() if c))
        if rows.setdefault(pattern, ratio) != ratio:
            return None

    matrix = []
    rhs = []
    for pattern, turns in rows.items():
        if not pattern:
            if turns != 0:
                return None
            continue
        matrix.append(dict(pattern))
        rhs.append(turns)
    if not matrix:
        return GaugeTransform()
    sf = intlin.smith_normal_form(matrix, len(matrix), len(index))
    solution = intlin.solve_turns(sf, rhs)
    if solution is None:
        return None
    gauge = GaugeTransform()
    phases = {"v": gauge.vertex, "s": gauge.sheet}
    for (kind, label), i in index.items():
        phases[kind][label] = turn_phase(solution[i])
    # exact witness check; failure here means a bug, not inequivalence
    if tables_distance(apply_gauge(source, gauge), target) > max(tol, 1e-8):
        raise MatchFailure("solved gauge fails to reproduce the target tables")
    return gauge


# ---------------------------------------------------------------------------
# the closed-form relabel class


def relabel_cochain(theory, z, root_order=None):
    """The 3-cochain omega_z that relabeling by a closed 1-cochain ``z`` adds.

    For a twist T_{t,x} of a theory and a closed ``z`` whose relabeling
    keeps its vacuum, fusion triples and action (:func:`structure_check`),
    relabel_z(T_{t,x}) is gauge equivalent to T_{t,x*omega_z}.  So
    defectification classes alpha and alpha*omega_z of one fractionalization
    class t name the same theory.  omega_z reads only identity-graded
    symbols, which do not depend on x, so any T_{t,x} gives it.

    Its phases (:func:`_relabel_phases`) are snapped to U(1) at
    ``root_order`` (default: :func:`gxbtc.torsor.default_root_order`).  Its
    closure is not checked here: ``cli._collapse_classes`` tests it once, in
    :meth:`gxbtc.groups.CohomologyGroup.class_of`, which raises NotACocycle;
    ``validate_cocycle(relabel_cochain(...), degree=3)`` checks it alone.
    """
    if not is_cocycle(z):
        raise NotA1Cocycle("relabeling 1-cochain must be closed")
    module = root_module(theory, root_order)
    return Cochain(theory.group, 3, module, _relabel_phases(theory, z))


def _relabel_phases(theory, z):
    """Phases {(g, h, k): complex} of omega_z over G^3 in product order, on
    the numpy index, bit for bit as the scalar formula of the oracles."""
    import numpy as np
    ix = consistency.theory_index(theory)
    mult, act, dual, tr = ix.mult, ix.act, ix.dual, ix.translate
    zg = np.array([z(g) for g in theory.group.elements()], dtype=np.int64)
    g, h, k = np.indices((ix.order,) * 3).reshape(3, -1)
    gh, hk = mult[g, h], mult[h, k]
    ghzbar_k = act[gh, dual[zg[k]]]
    zk_zhk = act[g, tr(zg[k], dual[zg[hk]])]
    zhk_zghk = tr(act[g, zg[hk]], dual[zg[mult[gh, k]]])
    look = _Lookups(ix)
    val = look.eta(ghzbar_k, g, h)
    val = cmul(val, look.u_line(g, zk_zhk, ghzbar_k))
    val = cquot(val, look.f_line(zhk_zghk, zk_zhk, ghzbar_k))
    look.check()
    return _table_of((g, h, k), val)


# ---------------------------------------------------------------------------
# equivalence search


class _StructureCheck:
    """Whether a relabeling carries ``source``'s vacuum, fusion triples and
    action onto ``target``'s, tested one placed charge at a time.

    The source charges are placed in ``order``.  :meth:`admits` tests the
    conditions that the charge at position i completes: perm[vacuum] is the
    target's vacuum, each source triple whose charges are all placed maps
    to a target triple, and perm[act(g, a)] == target.act(g, perm[a]) for
    each placed pair a, act(g, a).  A whole permutation that passes every
    position carries the source's structure onto the target's exactly when
    both theories have equally many fusion triples (``same_size``).
    """

    def __init__(self, source, target, order):
        self.order = tuple(order)
        position = {a: i for i, a in enumerate(self.order)}
        self.vacuum = source.vacuum
        self.target_vacuum = target.vacuum
        self.target_triples = set(target.fusion_triples())
        self.target_action = target.action
        source_triples = source.fusion_triples()
        self.same_size = len(source_triples) == len(self.target_triples)
        self.triples_at = [[] for _ in self.order]
        for trip in source_triples:
            self.triples_at[max(position[a] for a in trip)].append(trip)
        self.pairs_at = [[] for _ in self.order]
        for g in source.group.elements():
            for a in source.charges():
                b = source.act(g, a)
                self.pairs_at[max(position[a], position[b])].append((g, a, b))

    def carries(self, relabeling):
        """True when ``relabeling`` passes every position."""
        return all(self.admits(i, relabeling.perm) for i in range(len(self.order)))

    def admits(self, i, perm):
        """True unless placing charge ``order[i]`` breaks a condition."""
        if self.order[i] == self.vacuum and perm[self.vacuum] != self.target_vacuum:
            return False
        triples = self.target_triples
        for a, b, c in self.triples_at[i]:
            if (perm[a], perm[b], perm[c]) not in triples:
                return False
        action = self.target_action
        for g, a, b in self.pairs_at[i]:
            if perm[b] != action[g][perm[a]]:
                return False
        return True


def structure_check(theory):
    """The :class:`_StructureCheck` of ``theory`` onto itself, built once:
    its ``carries(relabeling)`` is True when relabeling ``theory`` keeps its
    vacuum, fusion triples and action."""
    return _StructureCheck(theory, theory, theory.charges())


def _structure_preserving_permutations(source, target):
    """Relabelings that send each charge of ``source`` to a charge of
    ``target`` of the same grade and carry the vacuum, fusion triples and
    action of ``source`` onto ``target``'s.

    They come in the order of ``itertools.product`` over the
    ``itertools.permutations`` of each grade block: the source's blocks in
    order of first appearance, and images tried in the target's order of
    that grade's charges.  A partial permutation is dropped as soon as its
    last placed charge breaks a condition (:class:`_StructureCheck`).
    """
    by_grade = {}
    for a in source.charges():
        by_grade.setdefault(source.grade(a), []).append(a)
    order = [a for block in by_grade.values() for a in block]
    pools = [target.charges_of_grade(source.grade(a)) for a in order]
    check = _StructureCheck(source, target, order)
    if not check.same_size:
        return
    perm = [0] * source.num_charges
    used = [False] * source.num_charges

    def extend(i):
        if i == len(order):
            yield Relabeling(tuple(perm))
            return
        src = order[i]
        for dst in pools[i]:
            if used[dst]:
                continue
            perm[src] = dst
            if check.admits(i, perm):
                used[dst] = True
                yield from extend(i + 1)
                used[dst] = False

    yield from extend(0)


def theories_equivalent(first, second, budget=10000, tol=DEFAULT_TOL):
    """Search for (relabeling, gauge) making the theories identical.

    The candidates are the relabelings that send each charge of ``first``
    to a charge of ``second`` of the same grade and carry the vacuum,
    fusion and action of ``first`` onto those of ``second``; only they
    are built and gauge matched, and ``budget`` bounds their number.
    Returns the witness pair or None when every candidate has been refuted.
    Raises BudgetExceeded when the budget ran out first (inconclusive).
    """
    if first.group.mult != second.group.mult or any(
            len(first.charges_of_grade(g)) != len(second.charges_of_grade(g))
            for g in first.group.elements()):
        return None
    undecided = 0
    relabelings = _structure_preserving_permutations(first, second)
    for examined, relabeling in enumerate(relabelings):
        if examined >= budget:
            raise BudgetExceeded(
                f"examined {examined} relabelings without a verdict")
        try:
            gauge = solve_gauge_matching(relabel(first, relabeling), second, tol)
        except _NonRootRatio:
            undecided += 1
            continue
        if gauge is not None:
            return relabeling, gauge
    if undecided:
        raise BudgetExceeded(
            f"{undecided} candidate relabelings were undecidable "
            "(phases off the root-of-unity lattice)")
    return None
