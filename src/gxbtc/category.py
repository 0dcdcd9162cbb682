"""Skeletal data of a G-crossed braided tensor category.

A theory is a finite set of charges graded by group elements, a
multiplicity-free fusion tensor, sparse F/R/U/eta symbol tables, and a
symmetry action permuting charges.  Symbol lookups on tuples without a
fusion channel raise instead of returning zero; only the hexagon checker
reads F through ``f_or_zero``, where a missing entry is a genuine zero.
"""

from __future__ import annotations

import math
import weakref
from types import MappingProxyType

from .errors import InadmissibleTuple, InvalidInput, NotAbelianMonodromy
from .groups import (
    DEFAULT_TOL,
    AbelianModule,
    FiniteGroup,
    is_index,
    phase_encoder,
    phase_from_json,
)


class GxTheory:
    """Immutable container for the basic data of a G-crossed theory.

    Parameters
    ----------
    group : FiniteGroup
    grades : sequence of group elements, one per charge
    vacuum : charge index of the vacuum
    fusion : iterable of admissible (a, b, c) triples (N = 1 on these)
    f, r, u, eta : symbol tables keyed as described below
    action : mapping g -> charge permutation (sequence)
    metadata : optional JSON-compatible dict, not part of the identity

    Table keys: ``f[(a, b, c, d, e, f_)]``, ``r[(a, b, c)]``,
    ``u[(k, a, b, c)]``, ``eta[(x, g, h)]``.
    """

    def __init__(self, group, grades, vacuum, fusion, f, r, u, eta, action,
                 metadata=None):
        self.group = group
        self.grades = tuple(grades)
        self.vacuum = int(vacuum)
        n = len(self.grades)
        self.num_charges = n
        if not (0 <= self.vacuum < n):
            raise InvalidInput("vacuum index out of range")
        if self.grades[self.vacuum] != group.identity:
            raise InvalidInput("vacuum must carry the identity grade")
        self._n = frozenset(tuple(t) for t in fusion)
        outcomes = {}
        for a, b, c in sorted(self._n):
            outcomes.setdefault((a, b), []).append(c)
        self._outcomes = {pair: tuple(cs) for pair, cs in outcomes.items()}
        by_grade = {}
        for a, g in enumerate(self.grades):
            by_grade.setdefault(g, []).append(a)
        self._by_grade = {g: tuple(cs) for g, cs in by_grade.items()}
        self._f = dict(f)
        self._r = dict(r)
        self._u = dict(u)
        self._eta = dict(eta)
        self._views = tuple(MappingProxyType(t)
                            for t in (self._f, self._r, self._u, self._eta))
        self.action = {g: tuple(perm) for g, perm in dict(action).items()}
        if sorted(self.action) != list(group.elements()):
            raise InvalidInput("action must cover every group element")
        self.metadata = dict(metadata or {})
        self._dual = self._compute_duals()
        self._abelian = tuple(
            a for a in range(n)
            if all(len(self._outcomes.get((a, b), ())) == 1 for b in range(n)))

    # -- structure ---------------------------------------------------------

    def _compute_duals(self):
        dual = []
        for a in range(self.num_charges):
            partners = [b for b in range(self.num_charges)
                        if (a, b, self.vacuum) in self._n]
            if len(partners) != 1:
                raise InvalidInput(f"charge {a} has {len(partners)} duals")
            dual.append(partners[0])
        return tuple(dual)

    def charges(self):
        return range(self.num_charges)

    def grade(self, a):
        return self.grades[a]

    def dual(self, a):
        return self._dual[a]

    def n(self, a, b, c):
        return 1 if (a, b, c) in self._n else 0

    def fusion_triples(self):
        return sorted(self._n)

    def fusion_outcomes(self, a, b):
        return self._outcomes.get((a, b), ())

    def charges_of_grade(self, g):
        return self._by_grade.get(g, ())

    def is_abelian_charge(self, a):
        return a in self._abelian

    def abelian_charges(self):
        """Abelian charges in the identity-graded sector, sorted."""
        ident = self.group.identity
        return tuple(a for a in self._abelian if self.grades[a] == ident)

    def act(self, g, a):
        return self.action[g][a]

    def translate(self, x, a):
        """The unique charge in x (x) a for an abelian left factor x."""
        out = self._outcomes.get((x, a), ())
        if len(out) != 1:
            raise InadmissibleTuple(
                f"translation by {x} of {a} is not unique: outcomes {out}")
        return out[0]

    def fuse_abelian(self, *xs):
        """Iterated fusion of abelian charges."""
        acc = self.vacuum
        for x in xs:
            acc = self.translate(acc, x)
        return acc

    # -- symbol lookups ----------------------------------------------------

    @staticmethod
    def _lookup(name, table, key):
        try:
            return table[key]
        except KeyError:
            raise InadmissibleTuple(f"{name}{key} is not an admissible tuple") from None

    def f_symbol(self, a, b, c, d, e, f):
        return self._lookup("F", self._f, (a, b, c, d, e, f))

    def r_symbol(self, a, b, c):
        return self._lookup("R", self._r, (a, b, c))

    def u_symbol(self, k, a, b, c):
        return self._lookup("U", self._u, (k, a, b, c))

    def eta_symbol(self, x, g, h):
        return self._lookup("eta", self._eta, (x, g, h))

    # -- scalar symbols on lines with unique fusion channels -----------------

    def f_line(self, a, b, c, d=None):
        """Scalar F symbol with all labels forced by fusion uniqueness."""
        e = self.translate(a, b)
        f = self.translate(b, c)
        if d is None:
            d = self.translate(e, c)
        return self.f_symbol(a, b, c, d, e, f)

    def r_line(self, a, b):
        """Scalar R symbol on the unique channel of (a, b)."""
        return self.r_symbol(a, b, self.translate(a, b))

    def u_line(self, k, a, b):
        """Scalar U symbol on the unique channel of (a, b)."""
        return self.u_symbol(k, a, b, self.translate(a, b))

    def f_or_zero(self, a, b, c, d, e, f):
        return self._f.get((a, b, c, d, e, f), 0j)

    def f_entries(self):
        """Read-only view of the F table; likewise the R, U and eta views."""
        return self._views[0]

    def r_entries(self):
        return self._views[1]

    def u_entries(self):
        return self._views[2]

    def eta_entries(self):
        return self._views[3]

    # -- admissibility helpers ----------------------------------------------

    def f_admissible_tuples(self):
        """All (a,b,c,d,e,f) with the four defining fusion channels."""
        for a, b, e in self.fusion_triples():
            for c in self.charges():
                for d in self.fusion_outcomes(e, c):
                    for f in self.fusion_outcomes(b, c):
                        if (a, f, d) in self._n:
                            yield (a, b, c, d, e, f)

    def replace(self, **tables):
        """Functional update used by gauge transforms and torsor output."""
        kwargs = dict(
            group=self.group, grades=self.grades, vacuum=self.vacuum,
            fusion=self._n, f=self._f, r=self._r, u=self._u, eta=self._eta,
            action=self.action, metadata=self.metadata)
        kwargs.update(tables)
        return GxTheory(**kwargs)

    def __repr__(self):
        name = self.metadata.get("name", "")
        return (f"GxTheory({name or 'unnamed'}: |G|={self.group.order}, "
                f"charges={self.num_charges})")


# ---------------------------------------------------------------------------
# derived quantities


def fusion_violations(n, outcomes):
    """Yield each (a, b, c, d) where multiplicity-free fusion is not associative.

    ``outcomes`` maps a pair (a, b) to the charges c with N_ab^c = 1; charges
    are ``range(n)``.  For every (a, b, c) in lexicographic order the
    d-multisets of sum_e N_ab^e N_ec^d and sum_f N_bc^f N_af^d are built from
    the outcome lists, and each d where they differ is yielded in ascending
    order.  This is the dense definition over all n^4 tuples, at a cost of
    O(n^3 k^2) dictionary operations, where k bounds the outcomes of a pair.
    """
    charges = range(n)
    for a in charges:
        for b in charges:
            ab = [e for e in outcomes.get((a, b), ()) if 0 <= e < n]
            for c in charges:
                lhs = {}
                for e in ab:
                    for d in outcomes.get((e, c), ()):
                        lhs[d] = lhs.get(d, 0) + 1
                rhs = {}
                for f in outcomes.get((b, c), ()):
                    if 0 <= f < n:
                        for d in outcomes.get((a, f), ()):
                            rhs[d] = rhs.get(d, 0) + 1
                if lhs != rhs:
                    for d in sorted(set(lhs) | set(rhs)):
                        if 0 <= d < n and lhs.get(d, 0) != rhs.get(d, 0):
                            yield a, b, c, d


def action_violations(group, grades, triples, action):
    """Yield a message per broken rule of ``action`` (k -> charge images),
    in this order: the identity acts trivially; then per k, k permutes the
    charges (else k's other rules are skipped), moves ``grades`` by
    conjugation, acts after each h as kh does (the first failing h is
    named), and keeps each fusion triple of the sequence ``triples``."""
    charges = range(len(grades))
    kept = set(triples)
    if action[group.identity] != tuple(charges):
        yield "identity group element does not act trivially"
    for k in group.elements():
        perm = action[k]
        if sorted(perm) != list(charges):
            yield f"action of {k} is not a permutation"
            continue
        for a in charges:
            if grades[perm[a]] != group.prod(k, grades[a], group.inverse(k)):
                yield f"action of {k} violates grade covariance on charge {a}"
        for h in group.elements():
            combo = tuple(perm[action[h][a]] for a in charges)
            if combo != action[group.op(k, h)]:
                yield f"action is not a homomorphism at ({k},{h})"
                break
        for a, b, c in triples:
            if (perm[a], perm[b], perm[c]) not in kept:
                yield f"action of {k} does not preserve N({a},{b};{c})"


def validate(theory, tol=DEFAULT_TOL):
    """Structural checks; returns a list of human-readable violations.

    Fusion associativity costs O(n^3 k^2) dictionary operations for n
    charges with at most k outcomes per pair (see :func:`fusion_violations`).
    """
    out = []
    g = theory.group
    n = theory.num_charges

    def note(msg):
        out.append(msg)

    # grading
    for a, b, c in theory.fusion_triples():
        if theory.grade(c) != g.op(theory.grade(a), theory.grade(b)):
            note(f"grading violated on N({a},{b};{c})")
    # vacuum axioms
    for a in theory.charges():
        if theory.n(theory.vacuum, a, a) != 1 or theory.n(a, theory.vacuum, a) != 1:
            note(f"vacuum does not fuse trivially with charge {a}")
        ga, gd = theory.grade(a), theory.grade(theory.dual(a))
        if gd != g.inverse(ga):
            note(f"dual of charge {a} has grade {gd}, expected inverse of {ga}")
    # associativity of the fusion ring
    for a, b, c, d in fusion_violations(n, theory._outcomes):
        note(f"fusion not associative at ({a},{b},{c};{d})")
    out.extend(action_violations(g, theory.grades, theory.fusion_triples(),
                                 theory.action))
    ident = g.identity
    # normalization conventions
    for (k, a, b, c), val in theory.u_entries().items():
        if k == ident and abs(val - 1.0) > tol:
            note(f"U_0({a},{b};{c}) != 1")
        if a == theory.vacuum and b == c and abs(val - 1.0) > tol:
            note(f"U_{k}(vacuum,{b};{b}) != 1")
        if b == theory.vacuum and a == c and abs(val - 1.0) > tol:
            note(f"U_{k}({a},vacuum;{a}) != 1")
    for (x, gg, hh), val in theory.eta_entries().items():
        if x == theory.vacuum and abs(val - 1.0) > tol:
            note(f"eta_vacuum({gg},{hh}) != 1")
        if (gg == ident or hh == ident) and abs(val - 1.0) > tol:
            note(f"eta_{x}({gg},{hh}) != 1 on an identity argument")
    # F unitarity per (a,b,c,d) block
    blocks = {}
    for (a, b, c, d, e, f), val in theory.f_entries().items():
        blocks.setdefault((a, b, c, d), {})[(e, f)] = val
    for key, entries in blocks.items():
        es = sorted({e for e, _ in entries})
        fs = sorted({f for _, f in entries})
        if len(es) != len(fs):
            note(f"F block {key} is not square")
            continue
        if len(es) == 1:
            # np.allclose's test against 1 (rtol 1e-5), without its overhead
            (val,) = entries.values()
            unitary = abs(val * val.conjugate() - 1) <= max(tol, 1e-9) + 1e-5
        else:
            import numpy as np  # only here: abelian theories never load it
            mat = np.array([[entries.get((e, f), 0j) for f in fs] for e in es])
            unitary = np.allclose(mat @ mat.conj().T, np.eye(len(es)),
                                  atol=max(tol, 1e-9))
        if not unitary:
            note(f"F block {key} is not unitary")
    # table coverage
    f_keys = set(theory.f_entries())
    for tup in theory.f_admissible_tuples():
        if tup not in f_keys:
            note(f"missing F entry at {tup}")
    for a, b, c in theory.fusion_triples():
        if (a, b, c) not in theory.r_entries():
            note(f"missing R entry at ({a},{b},{c})")
        for k in g.elements():
            if (k, a, b, c) not in theory.u_entries():
                note(f"missing U entry at ({k},{a},{b},{c})")
    for x in theory.charges():
        for gg in g.elements():
            for hh in g.elements():
                if (x, gg, hh) not in theory.eta_entries():
                    note(f"missing eta entry at ({x},{gg},{hh})")
    return out


def quantum_dimensions(theory):
    """Per-charge quantum dimensions (spectral radii) plus the total D."""
    import numpy as np
    n = theory.num_charges
    dims = {}
    for a in theory.charges():
        mat = np.zeros((n, n))
        for b in theory.charges():
            for c in theory.fusion_outcomes(a, b):
                mat[b, c] = 1.0
        dims[a] = float(max(abs(np.linalg.eigvals(mat))))
    total = math.sqrt(sum(d * d for d in dims.values()))
    return dims, total


class ChargeModule(AbelianModule):
    """The abelian identity-sector charges of a theory as a coefficient module.

    Elements are charge indices; the cyclic decomposition provides the
    residue coordinates used by the cohomology engine.
    """

    kind = "charges"

    def __init__(self, theory):
        charges = theory.abelian_charges()
        basis, orders, vectors = _cyclic_decomposition(theory, charges)
        super().__init__(orders, theory.group)
        self.theory = theory
        self.charges = charges
        self.basis = basis
        self.order = len(charges)
        self.identity = theory.vacuum
        self._vector_of = vectors
        self._charge_of = {v: c for c, v in vectors.items()}

    def act(self, g, a):
        return self.theory.act(g, a)

    def to_vec(self, a):
        return self._vector_of[a]

    def from_vec(self, vec):
        return self._charge_of[tuple(x % m for x, m in zip(vec, self.factors))]

    def action_matrix(self, g):
        k = len(self.factors)
        cols = [self._vector_of[self.theory.act(g, self.basis[j])] for j in range(k)]
        return [[cols[j][i] for j in range(k)] for i in range(k)]

    def validate_element(self, a):
        if a not in self._vector_of:
            raise InvalidInput(f"charge {a} is not an abelian identity-sector charge")
        return a

    def describe(self):
        return {"charges": list(self.charges), "cyclic": list(self.factors)}


def _cyclic_decomposition(theory, charges):
    """Split an abelian charge set into cyclic factors by exhaustive search."""
    if not charges:
        return (), (), {}
    vac = theory.vacuum
    total = len(charges)
    members = set(charges)
    orders = {}
    for c in charges:
        n, x = 1, c
        while x != vac:
            if n > total:  # in a group of ``total`` charges, c^total = 1
                raise InvalidInput(
                    "abelian charges do not form a group under fusion")
            x = theory.translate(x, c)
            n += 1
        orders[c] = n
    candidates = sorted(charges, key=lambda c: (-orders[c], c))

    def search(span, basis):
        # span: coordinate tuple -> charge, always a direct-product image
        if len(span) == total:
            return basis, span
        for c in candidates:
            m = orders[c]
            # the vacuum (m = 1) never grows the span
            if m == 1 or total % (len(span) * m) != 0:
                continue
            new_span = {}
            for coords, elem in span.items():
                x = elem
                new_span[coords + (0,)] = x
                for p in range(1, m):
                    x = theory.translate(x, c)
                    new_span[coords + (p,)] = x
            image = set(new_span.values())
            if len(image) == len(span) * m and image <= members:
                found = search(new_span, basis + [c])
                if found is not None:
                    return found
        return None

    found = search({(): vac}, [])
    if found is None:
        raise InvalidInput("abelian charges do not form a group under fusion")
    basis, span = found
    factor_orders = tuple(orders[b] for b in basis)
    vectors = {charge: coords for coords, charge in span.items()}
    # present ascending so the invariant-factor chain reads smallest first
    order_idx = sorted(range(len(basis)), key=lambda i: factor_orders[i])
    basis = tuple(basis[i] for i in order_idx)
    factor_orders = tuple(factor_orders[i] for i in order_idx)
    vectors = {c: tuple(v[i] for i in order_idx) for c, v in vectors.items()}
    return tuple(basis), factor_orders, vectors


_ABELIAN_CACHE = weakref.WeakKeyDictionary()


def abelian_subgroup(theory):
    """Group structure on the abelian identity-sector charges.

    The result doubles as the coefficient module for torsor 2-cochains,
    carrying the restriction of the symmetry action.
    """
    cached = _ABELIAN_CACHE.get(theory)
    if cached is not None:
        return cached
    module = ChargeModule(theory)
    for g in theory.group.elements():
        for a in module.charges:
            if theory.act(g, a) not in module.charges:
                raise InvalidInput(
                    f"action of {g} does not preserve the abelian sector")
    _ABELIAN_CACHE[theory] = module
    return module


def monodromy(theory, a, b):
    """Full double-braid phase R^{ab} R^{ba} for identity-graded charges."""
    ident = theory.group.identity
    if theory.grade(a) != ident or theory.grade(b) != ident:
        raise NotAbelianMonodromy("monodromy needs identity-graded charges")
    if not (theory.is_abelian_charge(a) or theory.is_abelian_charge(b)):
        raise NotAbelianMonodromy(f"neither {a} nor {b} is abelian")
    outcomes = theory.fusion_outcomes(a, b)
    if len(outcomes) != 1:
        raise NotAbelianMonodromy(f"fusion of ({a},{b}) is not unique")
    c = outcomes[0]
    return theory.r_symbol(a, b, c) * theory.r_symbol(b, a, c)


def tables_distance(first, second):
    """Max absolute difference across all symbol tables; requires equal shape."""
    if first.grades != second.grades or first._n != second._n:
        raise InvalidInput("theories have different fusion structure")
    worst = 0.0
    for table in ("_f", "_r", "_u", "_eta"):
        ta, tb = getattr(first, table), getattr(second, table)
        if set(ta) != set(tb):
            raise InvalidInput(f"{table} tables are keyed differently")
        for key, val in ta.items():
            worst = max(worst, abs(val - tb[key]))
    return worst


# ---------------------------------------------------------------------------
# JSON serialization


def group_to_json(group):
    return {"table": [list(row) for row in group.mult], "name": group.name}


def group_from_json(obj):
    if "cyclic" in obj:
        if not all(is_index(m, math.inf) and m > 0 for m in obj["cyclic"]):
            raise InvalidInput(f"cyclic factors {obj['cyclic']!r} are not "
                               "positive integers")
        return FiniteGroup.from_cyclic_factors(obj["cyclic"], obj.get("name"))
    if "table" in obj:
        return FiniteGroup.from_table(obj["table"], obj.get("name", ""))
    raise InvalidInput("group spec needs 'cyclic' or 'table'")


def theory_to_json(theory):
    """The theory's JSON object.  Its tables repeat a few phases many
    times, so entries share one value object per distinct written value
    (:func:`~gxbtc.groups.phase_encoder`); each entry owns its key lists."""
    encode = phase_encoder()
    return {
        "group": group_to_json(theory.group),
        "charges": [{"grade": g} for g in theory.grades],
        "vacuum": theory.vacuum,
        "dual": list(theory._dual),
        "fusion": [list(t) for t in theory.fusion_triples()],
        "action": [list(theory.action[g]) for g in theory.group.elements()],
        "F": [{"charges": list(k), "value": encode(v)}
              for k, v in sorted(theory.f_entries().items())],
        "R": [{"charges": list(k), "value": encode(v)}
              for k, v in sorted(theory.r_entries().items())],
        "U": [{"sheet": k[0], "charges": list(k[1:]), "value": encode(v)}
              for k, v in sorted(theory.u_entries().items())],
        "eta": [{"charge": k[0], "pair": list(k[1:]), "value": encode(v)}
                for k, v in sorted(theory.eta_entries().items())],
        "metadata": theory.metadata,
    }


def theory_from_json(obj):
    try:
        group = group_from_json(obj["group"])
        grades = [c["grade"] for c in obj["charges"]]
        fusion = [tuple(t) for t in obj["fusion"]]
        action = {g: obj["action"][g] for g in group.elements()}
        _check_indices(group, grades, obj["vacuum"], fusion, action)
        n, order = len(grades), group.order
        f = _phase_table(obj["F"], "F", (n,) * 6,
                         lambda e: tuple(e["charges"]))
        r = _phase_table(obj["R"], "R", (n,) * 3,
                         lambda e: tuple(e["charges"]))
        u = _phase_table(obj["U"], "U", (order, n, n, n),
                         lambda e: (e["sheet"], *e["charges"]))
        eta = _phase_table(obj["eta"], "eta", (n, order, order),
                           lambda e: (e["charge"], *e["pair"]))
        theory = GxTheory(group, grades, obj["vacuum"], fusion, f, r, u, eta,
                          action, metadata=obj.get("metadata"))
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidInput(f"malformed theory JSON: {exc}") from exc
    declared = obj.get("dual")
    if declared is not None and (
            list(theory._dual) != list(declared)
            or not all(is_index(a, theory.num_charges) for a in declared)):
        raise InvalidInput("declared dual map contradicts the fusion tensor")
    return theory


def _check_indices(group, grades, vacuum, fusion, action):
    """Raise InvalidInput unless every grade and charge index is in range
    and every action row permutes the charges."""
    n = len(grades)
    for g in grades:
        if not is_index(g, group.order):
            raise InvalidInput(f"malformed theory JSON: grade {g!r} is not "
                               "a group element")
    if not is_index(vacuum, n):
        raise InvalidInput(f"malformed theory JSON: vacuum {vacuum!r} is not "
                           "a charge")
    for triple in fusion:
        if len(triple) != 3 or not all(is_index(a, n) for a in triple):
            raise InvalidInput(f"malformed theory JSON: fusion entry "
                               f"{list(triple)} is not a triple of charges")
    for g, images in action.items():
        if len(images) != n or not all(is_index(a, n) for a in images):
            raise InvalidInput(f"malformed theory JSON: the action of {g} is "
                               f"not a list of {n} charges")
        if len(set(images)) != n:
            raise InvalidInput(f"malformed theory JSON: the action of {g} is "
                               "not a permutation of the charges")


def _phase_table(entries, name, bounds, key_of):
    """{key: phase} for JSON table entries; raise InvalidInput unless each
    key has one index below each of ``bounds`` and no key repeats."""
    table = {key_of(e): phase_from_json(e["value"]) for e in entries}
    if len(table) != len(entries):
        raise InvalidInput(f"malformed theory JSON: {name} lists a key "
                           "more than once")
    arity = len(bounds)
    for key in table:
        if len(key) != arity:
            raise InvalidInput(f"malformed theory JSON: {name} key {list(key)} "
                               f"does not have {arity} indices")
        for index, size in zip(key, bounds):
            # is_index inlined (a bool's type is not int): this runs once
            # per index of every entry
            if type(index) is not int or not 0 <= index < size:
                raise InvalidInput(f"malformed theory JSON: {name} key "
                                   f"{list(key)} has an index out of range")
    return table
