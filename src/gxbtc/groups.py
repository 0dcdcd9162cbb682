"""Finite groups, coefficient modules, normalized cochains, and cohomology.

Cochains are normalized maps G^n -> M stored sparsely over tuples of
non-identity group elements.  M is either a finite abelian group presented
by cyclic factors (optionally with a twisting G-action) or the circle group
restricted in practice to roots of unity.  Cohomology is computed by exact
integer linear algebra on the linearized coboundary operator; enumeration
never enters except in the test oracles.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from . import intlin
from .errors import (
    InvalidInput,
    NormalizationError,
    NotACocycle,
    RootOrderTooSmall,
    SnapFailure,
)

TAU = 2.0 * math.pi
DEFAULT_TOL = 1e-9
SNAP_TOL = 1e-6


# ---------------------------------------------------------------------------
# finite groups


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table.

    Elements are integers ``0 .. order-1``; ``mult[g][h]`` is the product.
    """

    mult: tuple
    identity: int
    inv: tuple
    name: str = ""

    @classmethod
    def from_table(cls, table, name=""):
        n = len(table)
        mult = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in mult):
            raise InvalidInput("multiplication table must be square")
        if not all(is_index(x, n) for row in mult for x in row):
            raise InvalidInput("table entries must be element indices")
        identity = None
        for e in range(n):
            if all(mult[e][g] == g and mult[g][e] == g for g in range(n)):
                identity = e
                break
        if identity is None:
            raise InvalidInput("table has no two-sided identity")
        inv = []
        for g in range(n):
            gi = [h for h in range(n) if mult[g][h] == identity and mult[h][g] == identity]
            if len(gi) != 1:
                raise InvalidInput(f"element {g} lacks a two-sided inverse")
            inv.append(gi[0])
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    if mult[mult[g][h]][k] != mult[g][mult[h][k]]:
                        raise InvalidInput("multiplication table is not associative")
        return cls(mult, identity, tuple(inv), name)

    @classmethod
    def cyclic(cls, n, name=None):
        table = [[(g + h) % n for h in range(n)] for g in range(n)]
        return cls.from_table(table, name if name is not None else f"Z{n}")

    @classmethod
    def from_cyclic_factors(cls, factors, name=None):
        """Direct product of cyclic groups; elements in mixed-radix order."""
        factors = list(factors)
        if not factors:
            return cls.trivial()
        n = math.prod(factors)
        def unpack(g):
            out = []
            for m in reversed(factors):
                out.append(g % m)
                g //= m
            return list(reversed(out))
        def pack(vec):
            g = 0
            for x, m in zip(vec, factors):
                g = g * m + x
            return g
        table = [[pack([(x + y) % m for x, y, m in zip(unpack(g), unpack(h), factors)])
                  for h in range(n)] for g in range(n)]
        if name is None:
            name = "x".join(f"Z{m}" for m in factors)
        return cls.from_table(table, name)

    @classmethod
    def trivial(cls):
        return cls.from_table([[0]], "Z1")

    @property
    def order(self):
        return len(self.mult)

    def elements(self):
        return range(self.order)

    def op(self, g, h):
        return self.mult[g][h]

    def prod(self, *gs):
        acc = self.identity
        for g in gs:
            acc = self.mult[acc][g]
        return acc

    def inverse(self, g):
        return self.inv[g]

    def conj(self, g, k):
        """k g k^{-1}."""
        return self.prod(k, g, self.inv[k])

    def nonidentity(self):
        return [g for g in self.elements() if g != self.identity]


# ---------------------------------------------------------------------------
# coefficient modules


class U1Module:
    """Roots of unity mu_N inside U(1), with trivial G-action.

    Elements are complex numbers of unit modulus.  ``order`` is the root
    order used when snapping values for exact solving.
    """

    kind = "u1"

    def __init__(self, order):
        if order < 1:
            raise InvalidInput("root order must be positive")
        self.order = order
        self.factors = (order,)
        self.identity = complex(1.0)

    def op(self, a, b):
        return a * b

    def inv(self, a):
        return a.conjugate()

    def act(self, g, a):
        return a

    def action_matrix(self, g):
        return [[1]]

    def close(self, a, b, tol=DEFAULT_TOL):
        return abs(a - b) <= tol

    def is_identity(self, a, tol=DEFAULT_TOL):
        return abs(a - 1.0) <= tol

    def exponent_of(self, a):
        k = round(math.atan2(a.imag, a.real) / TAU * self.order) % self.order
        if abs(a - self.value(k)) > SNAP_TOL:
            raise SnapFailure(
                f"value {a!r} is not within {SNAP_TOL} of any {self.order}-th root of unity")
        return k

    def value(self, k):
        return turn_phase(Fraction(k % self.order, self.order))

    def to_vec(self, a):
        return (self.exponent_of(a),)

    def from_vec(self, vec):
        return self.value(vec[0])

    def validate_element(self, a):
        if abs(abs(a) - 1.0) > SNAP_TOL:
            raise InvalidInput(f"U(1) cochain value {a!r} is not a phase")
        return complex(a)

    def describe(self):
        return {"roots_of_unity": self.order}


class AbelianModule:
    """Finite abelian group Z_{m1} x ... x Z_{mk} with an optional G-action.

    Elements are tuples of residues.  ``action`` maps a group element to a
    function on module elements; it must consist of automorphisms compatible
    with the group structure.
    """

    kind = "abelian"

    def __init__(self, factors, group=None, action=None):
        self.factors = tuple(int(m) for m in factors)
        if any(m < 1 for m in self.factors):
            raise InvalidInput("cyclic factor orders must be positive")
        self.order = math.prod(self.factors) if self.factors else 1
        self.identity = tuple(0 for _ in self.factors)
        self.group = group
        self._action = action

    def op(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.factors))

    def inv(self, a):
        return tuple((-x) % m for x, m in zip(a, self.factors))

    def act(self, g, a):
        if self._action is None:
            return a
        return self._action(g, a)

    def action_matrix(self, g):
        k = len(self.factors)
        cols = []
        for j in range(k):
            basis = tuple(1 if i == j else 0 for i in range(k))
            cols.append(self.act(g, basis))
        return [[cols[j][i] for j in range(k)] for i in range(k)]

    def close(self, a, b, tol=None):
        return a == b

    def is_identity(self, a, tol=None):
        return a == self.identity

    def elements(self):
        return [tuple(v) for v in itertools.product(*[range(m) for m in self.factors])]

    def to_vec(self, a):
        return tuple(a)

    def from_vec(self, vec):
        return tuple(x % m for x, m in zip(vec, self.factors))

    def validate_element(self, a):
        a = tuple(a)
        if len(a) != len(self.factors) or any(not (0 <= x < m) for x, m in zip(a, self.factors)):
            raise InvalidInput(f"{a!r} is not an element of {self.factors}")
        return a

    def describe(self):
        return {"cyclic": list(self.factors)}


# ---------------------------------------------------------------------------
# cochains


class Cochain:
    """A normalized n-cochain on a finite group with values in a module."""

    def __init__(self, group, degree, module, entries=None):
        self.group = group
        self.degree = int(degree)
        self.module = module
        data = {}
        if entries:
            for args, value in entries.items():
                args = tuple(args)
                if len(args) != self.degree:
                    raise InvalidInput("entry arity does not match cochain degree")
                if group.identity in args:
                    if not module.is_identity(value):
                        raise NormalizationError(
                            f"non-identity value at identity-containing tuple {args}")
                    continue
                value = module.validate_element(value)
                if not module.is_identity(value):
                    data[args] = value
        self.entries = data

    @classmethod
    def identity(cls, group, degree, module):
        return cls(group, degree, module, {})

    @classmethod
    def from_function(cls, group, degree, module, fn):
        entries = {}
        for args in itertools.product(group.nonidentity(), repeat=degree):
            entries[args] = fn(*args)
        return cls(group, degree, module, entries)

    def __call__(self, *args):
        if len(args) != self.degree:
            raise InvalidInput("wrong number of arguments")
        if self.group.identity in args:
            return self.module.identity
        return self.entries.get(tuple(args), self.module.identity)

    def support(self):
        return itertools.product(self.group.nonidentity(), repeat=self.degree)

    def combine(self, other):
        """Pointwise module product with another cochain of the same shape.

        U(1) cochains of different root orders combine into the lcm order.
        """
        if other.degree != self.degree:
            raise InvalidInput("cochain degrees differ")
        module = self.module
        if self.module.kind == "u1" and other.module.kind == "u1":
            if other.module.order != self.module.order:
                module = U1Module(math.lcm(self.module.order, other.module.order))
        elif other.module is not self.module \
                and other.module.factors != self.module.factors:
            raise InvalidInput("cochain shapes differ")
        return Cochain.from_function(
            self.group, self.degree, module,
            lambda *args: module.op(self(*args), other(*args)))

    def inverse(self):
        return Cochain.from_function(
            self.group, self.degree, self.module,
            lambda *args: self.module.inv(self(*args)))

    def equal(self, other, tol=DEFAULT_TOL):
        for args in self.support():
            if not self.module.close(self(*args), other(*args), tol):
                return False
        return True

    def is_identity_cochain(self, tol=DEFAULT_TOL):
        return all(self.module.is_identity(v, tol) for v in self.entries.values())

    def coboundary(self):
        """The degree n+1 coboundary, twisted by the module action."""
        g = self.group
        mod = self.module
        n = self.degree

        def value(*args):
            acc = mod.act(args[0], self(*args[1:]))
            for j in range(1, n + 1):
                merged = args[:j - 1] + (g.op(args[j - 1], args[j]),) + args[j + 1:]
                term = self(*merged)
                acc = mod.op(acc, term if j % 2 == 0 else mod.inv(term))
            last = self(*args[:n])
            acc = mod.op(acc, last if (n + 1) % 2 == 0 else mod.inv(last))
            return acc

        return Cochain.from_function(g, n + 1, mod, value)

    def __repr__(self):
        return (f"Cochain(degree={self.degree}, group={self.group.name or self.group.order}, "
                f"module={self.module.describe()}, nontrivial={len(self.entries)})")


def coboundary(cochain):
    """Functional form of :meth:`Cochain.coboundary`."""
    return cochain.coboundary()


def is_cocycle(cochain, tol=DEFAULT_TOL):
    """True iff the coboundary of ``cochain`` is the identity cochain."""
    return cochain.coboundary().is_identity_cochain(tol)


# ---------------------------------------------------------------------------
# exact phase helpers


@lru_cache(maxsize=None)
def turn_phase(turns):
    """exp(2*pi*i*turns) for a Fraction, cached for bit-stable tables."""
    t = turns - (turns.numerator // turns.denominator)
    if t == 0:
        return complex(1.0)
    if 2 * t == 1:
        return complex(-1.0)
    if 4 * t == 1:
        return complex(0.0, 1.0)
    if 4 * t == 3:
        return complex(0.0, -1.0)
    return cmath.exp(1j * TAU * float(t))


def snap_turns(value, max_denominator=96, snap_tol=1e-12):
    """Express a phase as an exact fraction of a turn when possible.

    The candidate is the best approximation of the phase's turn with
    denominator at most ``max_denominator``.  For a ``snap_tol`` far below
    1/max_denominator^2 no other such fraction is in reach, so this agrees
    with trying every denominator in turn.  The angle comes from
    ``math.atan2``, which returns a tiny or zero angle where ``cmath.phase``
    raises ``OverflowError`` on underflow (as for 2 + 5e-324j).
    """
    angle = math.atan2(value.imag, value.real)
    num, den = (angle / TAU).as_integer_ratio()
    if den > max_denominator:
        # Fraction.limit_denominator's continued-fraction search, in ints
        p0, q0, p1, q1 = 0, 1, 1, 0
        n, d = num, den
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > max_denominator:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (max_denominator - q0) // q1
        p, q = p0 + k * p1, q0 + k * q1
        if abs(p1 * den - num * q1) * q <= abs(p * den - num * q) * q1:
            num, den = p1, q1
        else:
            num, den = p, q
    turns = Fraction(num % den, den)
    if abs(value - turn_phase(turns)) <= snap_tol:
        return turns
    return None


# ---------------------------------------------------------------------------
# cohomology via Smith normal form


def _tuple_index(group, degree):
    tuples = list(itertools.product(group.nonidentity(), repeat=degree))
    return tuples, {t: i for i, t in enumerate(tuples)}


def _coboundary_matrix(group, degree, module):
    """Integer matrix of d: C^degree -> C^{degree+1} on normalized coordinates.

    Coordinates are (tuple, factor) pairs, tuples ordered lexicographically.
    Each row is a sparse ``{column: entry}`` dict of its nonzero entries.
    """
    k = len(module.factors)
    src_tuples, src_pos = _tuple_index(group, degree)
    dst_tuples, _ = _tuple_index(group, degree + 1)
    rows = len(dst_tuples) * k
    cols = len(src_tuples) * k
    mat = []
    ident = group.identity
    for args in dst_tuples:
        block = [{} for _ in range(k)]

        def add_block(src_args, sign, matrix=None):
            if ident in src_args:
                return
            j0 = src_pos[src_args] * k
            for i, row in enumerate(block):
                for j in range(k):
                    a = int(i == j) if matrix is None else matrix[i][j]
                    if a:
                        row[j0 + j] = row.get(j0 + j, 0) + sign * a

        add_block(args[1:], 1, module.action_matrix(args[0]))
        n = degree
        for j in range(1, n + 1):
            merged = args[:j - 1] + (group.op(args[j - 1], args[j]),) + args[j + 1:]
            add_block(merged, 1 if j % 2 == 0 else -1)
        add_block(args[:n], 1 if (n + 1) % 2 == 0 else -1)
        mat += [{j: a for j, a in row.items() if a} for row in block]
    return mat, rows, cols


def _cochain_to_vec(cochain):
    tuples, _ = _tuple_index(cochain.group, cochain.degree)
    k = len(cochain.module.factors)
    vec = []
    for args in tuples:
        vec.extend(cochain.module.to_vec(cochain(*args)))
    assert len(vec) == len(tuples) * k
    return vec


def _vec_to_cochain(group, degree, module, vec):
    tuples, _ = _tuple_index(group, degree)
    k = len(module.factors)
    entries = {}
    for i, args in enumerate(tuples):
        entries[args] = module.from_vec(tuple(vec[i * k + j] for j in range(k)))
    return Cochain(group, degree, module, entries)


def _scale_rows_to_lcm(mat, out_factors, tuples_count):
    """Scale each row so all congruences share the lcm of the output moduli."""
    mods = [m for _ in range(tuples_count) for m in out_factors]
    lcm = math.lcm(*mods) if mods else 1
    scaled = [{j: (lcm // m) * a for j, a in row.items()}
              for row, m in zip(mat, mods)]
    return scaled, lcm


@dataclass
class CohomologyGroup:
    """Representatives and cyclic orders of H^n, plus enumeration support."""

    group: FiniteGroup
    degree: int
    module: object
    orders: list
    representatives: list = field(repr=False)

    @property
    def size(self):
        return math.prod(self.orders) if self.orders else 1

    def all_classes(self):
        """One cocycle per cohomology class (products of the generators)."""
        reps = [Cochain.identity(self.group, self.degree, self.module)]
        for order, gen in zip(self.orders, self.representatives):
            powers = [Cochain.identity(self.group, self.degree, self.module)]
            for _ in range(order - 1):
                powers.append(powers[-1].combine(gen))
            reps = [r.combine(p) for r in reps for p in powers]
        return reps

    def class_of(self, cocycle):
        """Coordinates of a U(1) cocycle's class in Z/d_1 x ... x Z/d_k.

        The cocycle is snapped to exponents e at its own root order N.  It
        is closed iff c = A e / N is integral, A the integer coboundary,
        and then coordinate i is (U c)_i mod d_i for the Smith form
        U A V = D that gave ``orders``: U c = D V^-1 e / N.  So the i-th
        representative has the i-th unit vector, coordinates add under
        :meth:`Cochain.combine`, and two cocycles are cohomologous in U(1)
        exactly when their coordinates agree.
        """
        if self.module.kind != "u1" or cocycle.module.kind != "u1":
            raise InvalidInput("class coordinates need U(1) coefficients")
        if cocycle.group.mult != self.group.mult or cocycle.degree != self.degree:
            raise InvalidInput("cocycle is not a cochain of this group and degree")
        n = cocycle.module.order
        e = [cocycle.module.exponent_of(v) for v in _cochain_to_vec_u1(cocycle)]
        c = []
        for row in self._coboundary_rows:
            q, r = divmod(sum(a * e[j] for j, a in row.items()), n)
            if r:
                raise NotACocycle(f"{cocycle!r} has nontrivial coboundary")
            c.append(q)
        sf = _cached_snf(self.group, self.degree, self.module)
        c = sf.apply_u(c)
        return [c[i] % d for i, d in enumerate(sf.diag) if d > 1]

    @cached_property
    def _coboundary_rows(self):
        """Sparse rows of the integer coboundary out of this degree."""
        return _coboundary_matrix(self.group, self.degree, U1Module(1))[0]


def cohomology(group, degree, module):
    """H^degree of ``group`` with coefficients in ``module``.

    For :class:`U1Module` this is honest U(1)-coefficient cohomology from
    one Smith form U A V = D of the integer coboundary A: C^n -> C^{n+1}.
    A cochain valued in Q/Z is closed iff A x is integral, and the
    coboundaries fill out the real kernel of A, so with y = V^-1 x the
    group is the sum of Z/d_i over the diagonal entries d_i > 1, generated
    by the turns V e_i / d_i.  Those are written at the module's root
    order N; :class:`RootOrderTooSmall` is raised when some d_i does not
    divide N, since mu_N then reaches only the N-torsion.  Finite
    coefficients go through the congruence lattice of cocycles modulo the
    coboundary lattice.
    """
    if degree < 1:
        raise InvalidInput("degree must be at least 1")
    if isinstance(module, U1Module):
        return _cohomology_u1(group, degree, module)
    if group.order == 1 or module.order == 1:
        return CohomologyGroup(group, degree, module, [], [])
    return _cohomology_abelian(group, degree, module)


def _cohomology_u1(group, degree, module):
    sf = _cached_snf(group, degree, module)
    factors = [(i, d) for i, d in enumerate(sf.diag) if d > 1]
    orders = [d for _, d in factors]
    root_order = module.order
    if any(root_order % d for d in orders):
        raise RootOrderTooSmall(
            f"root order {root_order} misses classes of H^{degree} = "
            f"{' x '.join(f'Z{d}' for d in orders)}; use a multiple of "
            f"{math.lcm(*orders)}")
    reps = [_vec_to_cochain(group, degree, module,
                            [(root_order // d) * row[i] for row in sf.v])
            for i, d in factors]
    return CohomologyGroup(group, degree, module, orders, reps)


def _cohomology_abelian(group, degree, module):
    """Cocycles (A x = 0 modulo the factors) modulo the coboundary lattice."""
    k = len(module.factors)
    dmat, rows, cols = _coboundary_matrix(group, degree, module)
    scaled, lcm = _scale_rows_to_lcm(dmat, module.factors, rows // k)
    ambient = intlin.congruence_kernel_lattice(scaled, lcm, rows, cols)
    prev, prev_rows, prev_cols = _coboundary_matrix(group, degree - 1, module)
    gens = [[0] * prev_rows for _ in range(prev_cols)]
    for i, row in enumerate(prev):
        for j, a in row.items():
            gens[j][i] = a
    mods = [m for _ in range(cols // k) for m in module.factors]
    gens += [[m if j == i else 0 for j in range(cols)] for i, m in enumerate(mods)]
    orders, vecs = intlin.quotient_group(ambient, gens)
    if 0 in orders:
        raise AssertionError("cohomology of a finite module came out infinite")
    pairs = sorted(zip(orders, vecs), key=lambda p: p[0])
    reps = [_vec_to_cochain(group, degree, module,
                            [x % m for x, m in zip(v, mods)]) for _, v in pairs]
    return CohomologyGroup(group, degree, module, [o for o, _ in pairs], reps)


def cohomologous(first, second):
    """Witness mu with ``first = second * d(mu)``, or None.

    For U(1) coefficients the witness may take values in finer roots of
    unity than the inputs; this matches coboundary equivalence in U(1)
    rather than in mu_N.
    """
    if first.degree != second.degree:
        raise InvalidInput("cochain degrees differ")
    group, degree, module = first.group, first.degree, first.module
    if degree == 0:
        raise InvalidInput("degree-0 cochains have no coboundary witnesses")
    if module.kind == "u1":
        ratio = first.combine(second.inverse())
        target = [module.exponent_of(v) for v in _cochain_to_vec_u1(ratio)]
        big = module.order * group.order
        scale = group.order
        witness_module = U1Module(big)
        sf = _cached_snf(group, degree - 1, module)
        y = intlin.solve_mod(sf, [scale * t for t in target], big)
        if y is None:
            return None
        return _vec_to_cochain(group, degree - 1, witness_module, y)
    diff = first.combine(second.inverse())
    target = _cochain_to_vec(diff)
    k = len(module.factors)
    if k == 0:
        return Cochain.identity(group, degree - 1, module)
    n_tuples = len(_tuple_index(group, degree)[0])
    lcm = math.lcm(*module.factors)
    sf = _cached_snf(group, degree - 1, module)
    mods = [m for _ in range(n_tuples) for m in module.factors]
    b = [(lcm // m) * t for m, t in zip(mods, target)]
    y = intlin.solve_mod(sf, b, lcm)
    if y is None:
        return None
    return _vec_to_cochain(group, degree - 1, module, y)


def _cochain_to_vec_u1(cochain):
    tuples, _ = _tuple_index(cochain.group, cochain.degree)
    return [cochain(*args) for args in tuples]


_SNF_CACHE = {}


def _cached_snf(group, degree, module):
    """Smith form of the coboundary matrix into ``module``, rows scaled to
    one modulus for a finite module.

    Every U(1) module shares one integer coboundary; a finite module is
    told apart by its factors and its action matrices.
    """
    if module.kind == "u1":
        shape = "u1"
    else:
        shape = (module.factors, tuple(tuple(map(tuple, module.action_matrix(g)))
                                       for g in group.elements()))
    key = (group.mult, degree, shape)
    if key not in _SNF_CACHE:
        mat, rows, cols = _coboundary_matrix(group, degree, module)
        if module.kind != "u1":
            mat, _ = _scale_rows_to_lcm(mat, module.factors,
                                        rows // len(module.factors))
        _SNF_CACHE[key] = intlin.smith_normal_form(mat, rows, cols)
    return _SNF_CACHE[key]


# ---------------------------------------------------------------------------
# JSON forms


def phase_to_json(value):
    return turns_to_json(value, snap_turns(value))


def turns_to_json(value, turns):
    """JSON form of ``value``, given ``turns = snap_turns(value)``."""
    if turns is not None:
        return {"turns": f"{turns.numerator}/{turns.denominator}"}
    return {"re": value.real, "im": value.imag}


def phase_from_json(obj):
    if isinstance(obj, dict) and "turns" in obj:
        text = obj["turns"]
        if not isinstance(text, str):
            raise InvalidInput(f"turns {text!r} is not a \"p/q\" text")
        return _turns_text_phase(text)
    if isinstance(obj, dict) and "re" in obj:
        parts = obj["re"], obj.get("im", 0.0)
    else:
        parts = obj, 0.0
    # JSON numbers only: no bool, no numeric text, no int beyond a float
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in parts):
        raise InvalidInput(f"cannot parse phase value {obj!r}")
    try:
        value = complex(*map(float, parts))
    except OverflowError:
        raise InvalidInput(f"cannot parse phase value {obj!r}") from None
    if not cmath.isfinite(value):
        raise InvalidInput(f"phase value {obj!r} is not finite")
    return value


@lru_cache(maxsize=None)
def _turns_text_phase(text):
    """The phase of a ``"p/q"`` turn text, parsed once per distinct text."""
    num, _, den = text.partition("/")
    try:
        turns = Fraction(int(num), int(den or "1"))
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"turns {text!r} is not a \"p/q\" text") from None
    return turn_phase(turns)


def cochain_to_json(cochain):
    mod = cochain.module
    if mod.kind == "u1":
        encode = phase_to_json
    elif mod.kind == "charges":
        encode = int
    else:
        encode = list
    entries = [{"args": list(args), "value": encode(cochain(*args))}
               for args in sorted(cochain.entries)]
    return {"degree": cochain.degree, "module": mod.describe(),
            "entries": entries}


def is_index(value, size):
    """True iff ``value`` is an int, not a bool, in ``range(size)``."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and 0 <= value < size


def cochain_from_json(obj, group, module=None, degree=None):
    """Cochain from its JSON object; raise InvalidInput unless the degree,
    every argument and every charge or residue is an int (not a bool) in
    range (:class:`Cochain` checks each entry's arity), and unless the
    degree is ``degree`` when that is given."""
    def index(value, size, what):
        if not is_index(value, size):
            raise InvalidInput(f"malformed cochain JSON: {what} {value!r} is "
                               "not an integer or out of range")
        return value

    try:
        found = index(obj["degree"], math.inf, "degree")
        if degree is not None and found != degree:
            raise InvalidInput(f"expected a degree-{degree} cochain, "
                               f"got degree {found}")
        desc = obj.get("module")
        if module is None:
            if isinstance(desc, dict) and "roots_of_unity" in desc:
                module = U1Module(int(desc["roots_of_unity"]))
            elif isinstance(desc, dict) and "cyclic" in desc:
                module = AbelianModule(desc["cyclic"], group)
            else:
                raise InvalidInput(f"unknown module description {desc!r}")
        entries = {}
        for item in obj.get("entries", []):
            args = tuple(index(g, group.order, "group element")
                         for g in item["args"])
            value = item["value"]
            if module.kind == "u1":
                entries[args] = phase_from_json(value)
                continue
            if module.kind == "charges":
                value = index(value, math.inf, "charge")
            else:
                value = [index(v, m, "residue")
                         for v, m in zip(value, module.factors)]
            entries[args] = module.validate_element(value)
        return Cochain(group, found, module, entries)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed cochain JSON: {exc}") from exc


def validate_cocycle(cochain, tol=DEFAULT_TOL, degree=None):
    """Raise NotACocycle unless ``cochain`` is closed (optionally of a degree)."""
    if degree is not None and cochain.degree != degree:
        raise InvalidInput(f"expected a degree-{degree} cochain")
    if not is_cocycle(cochain, tol):
        raise NotACocycle(f"{cochain!r} has nontrivial coboundary")
    return cochain
