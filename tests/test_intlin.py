import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gxbtc.groups import (
    AbelianModule,
    FiniteGroup,
    U1Module,
    _coboundary_matrix,
    _scale_rows_to_lcm,
)
from gxbtc.intlin import (
    congruence_kernel_lattice,
    integer_kernel,
    lattice_basis,
    quotient_group,
    smith_normal_form,
    solve_integer,
    solve_mod,
    solve_turns,
)


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def is_identity(m):
    return all(m[i][j] == (1 if i == j else 0) for i in range(len(m)) for j in range(len(m)))


def det(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def transpose(m):
    return [list(col) for col in zip(*m)]


def dense_u(sf):
    """U and U^-1 rebuilt column by column from unit vectors."""
    units = [[1 if i == j else 0 for i in range(sf.rows)] for j in range(sf.rows)]
    u = transpose([sf.apply_u(e) for e in units])
    uinv = transpose([sf.uinv_column(j) for j in range(sf.rows)])
    return u, uinv


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_decomposition(a):
    rows, cols = len(a), len(a[0])
    sf = smith_normal_form(a, rows, cols)
    u, uinv = dense_u(sf)
    d = matmul(matmul(u, a), sf.v)
    for i in range(rows):
        for j in range(cols):
            expect = sf.diag[i] if i == j and i < len(sf.diag) else 0
            assert d[i][j] == expect
    # unimodularity: U via its replayed inverse, V by its exact determinant
    assert is_identity(matmul(u, uinv))
    assert det(sf.v) in (1, -1)
    # divisibility chain
    nz = [x for x in sf.diag if x]
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    assert all(x >= 0 for x in sf.diag)


def assert_smith_form(a):
    """The properties that hold whatever the pivot order; returns the form.

    U A V = D through ``apply_u``, U U^-1 = I through ``uinv_column``,
    |det V| = 1, a nonnegative diagonal with d_i | d_{i+1}, and the same
    ``(diag, ops, v)`` from list rows and from ``{column: entry}`` rows.
    """
    rows, cols = len(a), len(a[0])
    sf = smith_normal_form(a, rows, cols)
    for j in range(cols):
        column = [sum(row[k] * sf.v[k][j] for k in range(cols)) for row in a]
        expect = sf.diag[j] if j < len(sf.diag) else 0
        assert sf.apply_u(column) == [expect if i == j else 0 for i in range(rows)]
    for i in range(rows):
        assert sf.apply_u(sf.uinv_column(i)) == [int(k == i) for k in range(rows)]
    assert det(sf.v) in (1, -1)
    assert all(x >= 0 for x in sf.diag)
    nz = [x for x in sf.diag if x]
    assert all(y % x == 0 for x, y in zip(nz, nz[1:]))
    assert sf.diag[len(nz):] == [0] * (len(sf.diag) - len(nz))
    sparse = [{j: x for j, x in enumerate(row) if x} for row in a]
    other = smith_normal_form(sparse, rows, cols)
    assert (other.diag, other.ops, other.v) == (sf.diag, sf.ops, sf.v)
    return sf


def oracle_feasible(a):
    """Whether the dense oracle's remainder swaps stay small on ``a``.

    They can blow up on dense inputs with a larger rank and larger
    entries, so the oracle is asked only where the smaller side is at most
    4 or every entry lies in -1..1.
    """
    return min(len(a), len(a[0])) <= 4 or all(abs(x) <= 1 for row in a for x in row)


@st.composite
def oracle_matrices(draw):
    """Tall, wide and square matrices up to 8x8, some rows and columns zeroed.

    Entries lie in -6..6, or in -1..1 in half the draws.
    """
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    bound = draw(st.sampled_from([1, 6]))
    a = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(a)]


@st.composite
def coboundary_shaped_matrices(draw):
    """Sparse matrices shaped like integer coboundaries, up to 40x24.

    A row of d: C^n -> C^{n+1} sums n + 2 signed faces, so each row here
    sums 2 to 5 terms +-1 at drawn columns: its entries lie in -2..2, and
    faces that meet add up or cancel.  Some rows and columns are zeroed.
    Independent +-2 entries at this size would hit the entry growth of the
    dense oracle's remainder swaps in a few percent of draws.
    """
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 24))
    face = st.tuples(st.integers(0, cols - 1), st.sampled_from([-1, 1]))
    a = [[0] * cols for _ in range(rows)]
    for row in a:
        for j, sign in draw(st.lists(face, min_size=2, max_size=5)):
            row[j] += sign
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows // 4))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols // 4))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(a)]


@settings(max_examples=200, deadline=None)
@given(oracle_matrices())
def test_snf_matches_dense_oracle(a):
    sf = assert_smith_form(a)
    if oracle_feasible(a):
        # the invariant factors are unique, whatever the pivots
        assert sf.diag == oracles.dense_invariant_factors(a, len(a), len(a[0]))


@settings(max_examples=60, deadline=None)
@given(coboundary_shaped_matrices())
def test_sparse_snf_bit_identical_on_coboundary_shapes(a):
    sf = assert_smith_form(a)
    assert sf.diag == oracles.dense_invariant_factors(a, len(a), len(a[0]))


dense_matrices = st.integers(6, 8).flatmap(
    lambda r: st.integers(6, 8).flatmap(
        lambda c: st.lists(st.lists(st.integers(-6, 6), min_size=c, max_size=c),
                           min_size=r, max_size=r)))


@settings(max_examples=40, deadline=None)
@given(dense_matrices)
def test_snf_on_dense_matrices(a):
    # remainder swaps ran past 0.5 s on 16-22% of such draws; the dense
    # oracle still does, so only the properties are checked
    assert_smith_form(a)


# the 7x8 matrix on which remainder swaps reached 15,000-bit entries
DENSE_BLOWUP = [[-2, -5, -6, 5, 6, -6, 4, 3], [-1, -6, -1, -1, -5, -2, 5, 1],
                [-2, -3, -1, 6, 4, -1, -3, -6], [-2, -4, 2, 1, 2, -5, -5, 4],
                [1, -2, 3, -1, 2, 0, -1, 4], [-2, -2, 4, 0, 6, 4, -1, -5],
                [-5, -3, -3, 5, 0, -4, 5, 6]]


def log_digest(sf):
    """sha256 of the exact Smith form: its diagonal, row-operation log and V."""
    return hashlib.sha256(repr((sf.diag, sf.ops, sf.v)).encode()).hexdigest()


def test_dense_input_keeps_entries_small():
    sf = assert_smith_form(DENSE_BLOWUP)
    assert sf.diag == [1] * 7
    assert log_digest(sf) == \
        "6c0194948bd2185f293e1f1f5230d85d57a94d39527751f210af317c9a660f7d"
    coefficients = [x for _, _, _, c in sf.ops
                    for x in (c if isinstance(c, tuple) else (c,))]
    assert max(abs(x) for row in sf.v for x in row + coefficients) < 2 ** 32


@pytest.mark.parametrize("a, diag, digest", [
    ([[2], [3]], [1],             # a row Bezout step
     "b3a8d106fbf1cc10deecf8a05586d6ce5e9698b44875ea2dbfd557f200e8e1f9"),
    ([[2, 3]], [1],               # a column Bezout step
     "09d89e1bd12490f5283bc9a24586f49ea76bd552cc557bc724b7132281fb4bca"),
    ([[4, 0], [0, 6]], [2, 12],   # the divisibility chain
     "b180821ebf20f4153fee0557131e048db796592a67b98887d92c5e808e136137"),
    ([[6, 10], [10, 15]], [1, 10],
     "fc3b510736159b2bd1ed17cf525061f9d172cb4cba5f60106787d9516a7a5fa5"),
    ([[0, 0], [0, 0]], [0, 0],
     "b0203f29ad5754b2798e8f8ab736f866b99649dab3f9cd78cef3cf6bda5c5e7a"),
], ids=["row-bezout", "column-bezout", "chain", "det-10", "zero"])
def test_snf_without_units(a, diag, digest):
    sf = assert_smith_form(a)
    assert sf.diag == diag
    assert log_digest(sf) == digest


_PERMS = list(itertools.permutations(range(3)))
S3 = FiniteGroup.from_table(
    [[_PERMS.index(tuple(p[q[i]] for i in range(3))) for q in _PERMS] for p in _PERMS],
    "S3")


def lcm_scaled_coboundary(group, degree, module):
    mat, rows, cols = _coboundary_matrix(group, degree, module)
    mat, _ = _scale_rows_to_lcm(mat, module.factors, rows // len(module.factors))
    return mat, rows, cols


@pytest.mark.parametrize("matrix, digest", [
    (lambda: _coboundary_matrix(FiniteGroup.cyclic(6), 3, U1Module(1)),
     "36a7819f438044b2bd1577466c669876f5c4582494ed1a1e34e3670dbf5d5f69"),
    (lambda: _coboundary_matrix(S3, 3, U1Module(1)),
     "1f40f9a3dfd7d915212cc885ab32d36236123e636dd743d6efe72bde612d9d50"),
    (lambda: _coboundary_matrix(FiniteGroup.from_cyclic_factors([2, 2]), 4, U1Module(1)),
     "c69d8c66a4c28b53aa11707ab63a5c5d4e97f975fae4839b166f6cb0ae58af7a"),
    (lambda: _coboundary_matrix(FiniteGroup.cyclic(4), 4, U1Module(1)),
     "f95faf0775dd1abd970f5f53195a8441cff2d6f309a59f4a069ebcb5f2346c5c"),
    (lambda: _coboundary_matrix(FiniteGroup.from_cyclic_factors([3, 3]), 3, U1Module(1)),
     "aa4150aec513f065345f6487d37e24a392e2e4de5b84dda4809a2a8916b17594"),
    (lambda: lcm_scaled_coboundary(FiniteGroup.from_cyclic_factors([2, 2]), 3,
                                   AbelianModule([2, 2])),
     "733b0dbdb28db9670d931ef2fc36db8ce475d20706a93a68d6b29f6cd9241a2c"),
], ids=["Z6-u1-3", "S3-u1-3", "Z2x2-u1-4", "Z4-u1-4", "Z3x3-u1-3", "Z2x2-z2x2-3"])
def test_coboundary_smith_form_pinned(matrix, digest):
    # the exact pivot order, not only the invariant factors: a change in it
    # would otherwise show only as changed cohomology representatives
    assert log_digest(smith_normal_form(*matrix())) == digest


def test_coboundary_elimination_stays_short():
    # the pivot rule's fill-in, counted without a timer: 20,708 row
    # operations under the least-magnitude, row-major-first pivots
    mat, rows, cols = _coboundary_matrix(FiniteGroup.cyclic(6), 3, U1Module(1))
    sf = smith_normal_form(mat, rows, cols)
    assert len(sf.ops) < 6000
    assert [x for x in sf.diag if x > 1] == [6]


def test_solve_integer_basic():
    a = [[2, 0], [0, 3]]
    sf = smith_normal_form(a, 2, 2)
    assert solve_integer(sf, [4, 9]) == [2, 3]
    assert solve_integer(sf, [1, 0]) is None


def test_solve_mod_canonical_zero():
    a = [[2, 4], [0, 0]]
    sf = smith_normal_form(a, 2, 2)
    assert solve_mod(sf, [0, 0], 8) == [0, 0]
    x = solve_mod(sf, [6, 0], 8)
    assert x is not None
    assert (2 * x[0] + 4 * x[1]) % 8 == 6


def test_solve_mod_unsolvable():
    a = [[2]]
    sf = smith_normal_form(a, 1, 1)
    assert solve_mod(sf, [1], 4) is None


def test_solve_turns_divisible():
    # 2x = 1/2 has the solution x = 1/4 over Q/Z
    sf = smith_normal_form([[2]], 1, 1)
    assert solve_turns(sf, [Fraction(1, 2)]) == [Fraction(1, 4)]
    # zero row forces exact consistency
    sf2 = smith_normal_form([[1], [0]], 2, 1)
    assert solve_turns(sf2, [Fraction(1, 3), Fraction(0)]) == [Fraction(1, 3)]
    assert solve_turns(sf2, [Fraction(1, 3), Fraction(1, 2)]) is None


def test_integer_kernel():
    ker = integer_kernel([[1, 2, 3]], 1, 3)
    assert len(ker) == 2
    for v in ker:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_congruence_kernel_lattice():
    # x with 2x == 0 mod 4 -> lattice 2Z
    basis = congruence_kernel_lattice([[2]], 4, 1, 1)
    assert len(basis) == 1 and abs(basis[0][0]) == 2


def test_quotient_group_cyclic():
    # Z^2 / <(2,0),(0,3)> = Z2 x Z3 = Z6 in invariant-factor form
    ambient = [[1, 0], [0, 1]]
    orders, gens = quotient_group(ambient, [[2, 0], [0, 3]])
    assert sorted(orders) == [6]
    assert len(gens) == 1


def test_quotient_group_with_redundant_generators():
    ambient = [[1, 0], [0, 1]]
    orders, _ = quotient_group(ambient, [[2, 0], [0, 2], [2, 2]])
    assert sorted(orders) == [2, 2]


def test_lattice_basis_reduces():
    basis = lattice_basis([[2, 0], [4, 0], [0, 6]], 2)
    assert len(basis) == 2


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.integers(2, 12))
def test_solve_mod_roundtrip(a, modulus):
    rows, cols = len(a), len(a[0])
    sf = smith_normal_form(a, rows, cols)
    # build a solvable rhs from a random-ish x, then re-solve
    x0 = [(i * 7 + 3) % modulus for i in range(cols)]
    b = [sum(a[i][j] * x0[j] for j in range(cols)) % modulus for i in range(rows)]
    x = solve_mod(sf, b, modulus)
    assert x is not None
    for i in range(rows):
        assert sum(a[i][j] * x[j] for j in range(cols)) % modulus == b[i] % modulus
