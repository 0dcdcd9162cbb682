"""Exact integer linear algebra used by the cohomology and gauge solvers.

Everything here works on plain Python ints (no overflow).  A matrix is a
list of rows, and a row is a dense list or a sparse ``{column: entry}``
dict.  The central primitive is the Smith normal form U A V = D.  It
eliminates on sparse rows, so a row or column operation touches only
nonzero entries, and it picks the same pivots and runs the same operations,
in the same order, as the textbook dense elimination.  V is carried as
sparse columns and made dense once, at the end; U is kept as the log of
the row operations that produced it, which is replayed to apply U to a
vector or to read a column of its inverse.  Kernels, integer solves,
solves modulo N, and solves over the circle group (rational turns) are
derived from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


# row operations of the Smith-form log, as (kind, i, j, c) tuples
SWAP = 0    # swap rows i and j
ADD = 1     # row i += c * row j
NEGATE = 2  # row i = -row i


class SmithForm:
    """Decomposition U @ A @ V = D with U, V unimodular and D diagonal.

    ``diag`` holds the nonnegative diagonal entries, each dividing the next.
    ``v`` is the dense cols x cols matrix V, built once from the sparse
    columns the elimination carries.  U is the product of the row
    operations in ``ops``, applied in order to the identity; it is never
    formed.  ``apply_u`` replays them on a vector and ``uinv_column``
    replays their inverses, in reverse, on a unit vector.
    """

    def __init__(self, rows, cols, diag, ops, v):
        self.rows = rows
        self.cols = cols
        self.diag = diag
        self.ops = ops
        self.v = v

    def apply_u(self, b):
        """Left transform U @ b of a length-``rows`` vector."""
        x = list(b)
        for kind, i, j, c in self.ops:
            if kind == ADD:
                x[i] += c * x[j]
            elif kind == SWAP:
                x[i], x[j] = x[j], x[i]
            else:
                x[i] = -x[i]
        return x

    def uinv_column(self, col):
        """Column ``col`` of U^-1, that is U^-1 applied to a unit vector."""
        x = [0] * self.rows
        x[col] = 1
        for kind, i, j, c in reversed(self.ops):
            if kind == ADD:
                x[i] -= c * x[j]
            elif kind == SWAP:
                x[i], x[j] = x[j], x[i]
            else:
                x[i] = -x[i]
        return x

    def apply_v(self, y):
        """Right transform of a length-``cols`` vector."""
        return [sum(r[k] * y[k] for k in range(self.cols)) for r in self.v]


def smith_normal_form(matrix, rows, cols):
    """Compute the Smith normal form of a ``rows`` x ``cols`` integer matrix.

    A row of ``matrix`` is a dense list or a ``{column: entry}`` dict.
    """
    d = [{j: a for j, a in (row.items() if isinstance(row, dict) else enumerate(row))
          if a} for row in matrix]
    ops = []
    vcols = [{j: 1} for j in range(cols)]  # V by columns, made dense at the end

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        ops.append((SWAP, i, j, 0))

    def swap_cols(i, j):
        # called while pivot t is placed or cleared; rows above t hold
        # neither column
        for row in d[t:]:
            a, b = row.pop(i, 0), row.pop(j, 0)
            if b:
                row[i] = b
            if a:
                row[j] = a
        vcols[i], vcols[j] = vcols[j], vcols[i]

    def add_entries(dst, src, c):
        # dst += c * src on sparse dicts, dropping the entries that cancel
        for k, x in src.items():
            y = dst.get(k, 0) + c * x
            if y:
                dst[k] = y
            else:
                del dst[k]

    def add_row(dst, src, c):
        add_entries(d[dst], d[src], c)
        ops.append((ADD, dst, src, c))

    def add_col(dst, src, c, among):
        # col_dst += c * col_src; ``among`` holds every row with an entry at src
        for r in among:
            row = d[r]
            y = row.get(dst, 0) + c * row[src]
            if y:
                row[dst] = y
            else:
                del row[dst]
        add_entries(vcols[dst], vcols[src], c)

    def negate_row(i):
        d[i] = {k: -x for k, x in d[i].items()}
        ops.append((NEGATE, i, i, 0))

    # Rows t.. have entries only in columns t.., and rows ..t-1 are finished
    # diagonal rows, so every scan below looks at rows t.. alone.
    t = 0
    limit = min(rows, cols)
    while t < limit:
        # the row-major first entry of minimal magnitude in the trailing block
        best = 0
        for i in range(t, rows):
            row = d[i]
            if row:
                a = min(map(abs, row.values()))
                if not best or a < best:
                    best, pi = a, i
                    if a == 1:
                        break
        if not best:
            break
        pj = min(j for j, a in d[pi].items() if abs(a) == best)
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        dirty = True
        while dirty:
            dirty = False
            # clear the pivot column; step i changes only rows t and i
            for i in [i for i in range(t + 1, rows) if t in d[i]]:
                q = d[i][t] // d[t][t]
                if q:
                    add_row(i, t, -q)
                if t in d[i]:
                    swap_rows(t, i)
                    dirty = True
            # clear the pivot row; step j changes only columns t and j
            among = [r for r in range(t, rows) if t in d[r]]
            for j in sorted(j for j in d[t] if j != t):
                q = d[t][j] // d[t][t]
                if q:
                    add_col(j, t, -q, among)
                if j in d[t]:
                    swap_cols(t, j)
                    among = [r for r in range(t, rows) if t in d[r]]
                    dirty = True
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}; D is diagonal, and the
    # step on the block of rows and columns i, i+1 leaves it diagonal
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            if d[i + 1][i + 1] % d[i][i] != 0:
                changed = True
                add_col(i, i + 1, 1, (i + 1,))
                # Euclid on rows i, i+1 restricted to column i
                while d[i + 1].get(i):
                    q = d[i][i] // d[i + 1][i]
                    if q:
                        add_row(i, i + 1, -q)
                    swap_rows(i, i + 1)
                # clear the junk the row ops left at (i, i+1)
                if d[i].get(i + 1):
                    add_col(i + 1, i, -(d[i][i + 1] // d[i][i]), (i,))
                if d[i][i] < 0:
                    negate_row(i)
                if d[i + 1][i + 1] < 0:
                    negate_row(i + 1)
    diag = [d[i].get(i, 0) for i in range(limit)]
    v = [[0] * cols for _ in range(cols)]
    for j, col in enumerate(vcols):
        for i, a in col.items():
            v[i][j] = a
    return SmithForm(rows, cols, diag, ops, v)


def integer_kernel(matrix, rows, cols):
    """Basis (list of length-``cols`` vectors) of {x : A x = 0} over Z."""
    sf = smith_normal_form(matrix, rows, cols)
    basis = []
    for j in range(sf.cols):
        if j >= len(sf.diag) or sf.diag[j] == 0:
            basis.append([sf.v[i][j] for i in range(sf.cols)])
    return basis


def solve_integer(sf: SmithForm, b):
    """One solution of A x = b over Z given the Smith form of A, else None."""
    c = sf.apply_u(b)
    y = [0] * sf.cols
    for i in range(sf.rows):
        di = sf.diag[i] if i < len(sf.diag) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return sf.apply_v(y)


def solve_mod(sf: SmithForm, b, modulus):
    """Canonical solution of A x = b (mod ``modulus``) given Smith(A).

    Free coordinates in the Smith basis are pinned to zero, which makes the
    returned solution deterministic.  Returns None when no solution exists.
    """
    c = sf.apply_u(b)
    y = [0] * sf.cols
    for i in range(sf.rows):
        di = sf.diag[i] if i < len(sf.diag) else 0
        ci = c[i] % modulus
        if di == 0:
            if ci != 0:
                return None
        else:
            g = gcd(di, modulus)
            if ci % g != 0:
                return None
            m = modulus // g
            y[i] = ((ci // g) * pow(di // g, -1, m)) % m
    return [x % modulus for x in sf.apply_v(y)]


def solve_turns(sf: SmithForm, b):
    """Canonical solution of A x = b over the circle group Q/Z.

    ``b`` is a vector of Fractions interpreted modulo 1.  Because Q/Z is
    divisible, the only obstructions come from zero rows of the Smith form,
    so solvability here decides solvability over U(1) exactly.  The
    transform is applied over a common denominator to stay in integers.
    """
    denom = 1
    for x in b:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    c = sf.apply_u([int(x * denom) for x in b])
    y = {}
    for i in range(sf.rows):
        di = sf.diag[i] if i < len(sf.diag) else 0
        ci = c[i] % denom  # reduce the turn into [0, 1)
        if di == 0:
            if ci != 0:
                return None
        elif ci:
            y[i] = Fraction(ci, denom * di)
    x = [Fraction(0)] * sf.cols
    for i in range(sf.cols):
        acc = Fraction(0)
        row = sf.v[i]
        for k, yk in y.items():
            if k < sf.cols and row[k]:
                acc += row[k] * yk
        x[i] = acc - (acc.numerator // acc.denominator)
    return x


def congruence_kernel_lattice(matrix, modulus, rows, cols):
    """Basis of the full-rank lattice {x in Z^cols : A x == 0 (mod modulus)}."""
    sf = smith_normal_form(matrix, rows, cols)
    basis = []
    for j in range(sf.cols):
        if j < len(sf.diag) and sf.diag[j] != 0:
            scale = modulus // gcd(sf.diag[j], modulus)
        else:
            scale = 1
        basis.append([scale * sf.v[i][j] for i in range(sf.cols)])
    return basis


def lattice_basis(generators, dim):
    """Reduce a generating set of a lattice in Z^dim to an actual basis."""
    if not generators:
        return []
    mat = [[g[i] for g in generators] for i in range(dim)]
    sf = smith_normal_form(mat, dim, len(generators))
    # columns of A @ V span the same lattice; the nonzero ones are a basis
    basis = []
    for j in range(len(generators)):
        col = [sum(mat[i][k] * sf.v[k][j] for k in range(len(generators)))
               for i in range(dim)]
        if any(col):
            basis.append(col)
    return basis


def quotient_group(ambient_basis, subgroup_generators):
    """Invariant factors and generators of L / S for lattices S <= L.

    ``ambient_basis`` is a basis of L (list of vectors), and
    ``subgroup_generators`` generate S.  Returns ``(orders, gens)`` where the
    nontrivial cyclic orders come with a generating vector of L each; an
    order of 0 would indicate an infinite factor (not expected here).
    """
    dim = len(ambient_basis[0]) if ambient_basis else 0
    r = len(ambient_basis)
    if r == 0:
        return [], []
    lmat = [[ambient_basis[j][i] for j in range(r)] for i in range(dim)]
    sf_l = smith_normal_form(lmat, dim, r)
    coeffs = []
    for g in subgroup_generators:
        c = solve_integer(sf_l, g)
        if c is None:
            raise ValueError("subgroup generator outside the ambient lattice")
        coeffs.append(c)
    cmat = [[c[i] for c in coeffs] for i in range(r)]
    sf_c = smith_normal_form(cmat, r, len(coeffs))
    orders = []
    gens = []
    for i in range(r):
        di = sf_c.diag[i] if i < len(sf_c.diag) else 0
        if di == 1:
            continue
        # generator = ambient_basis combined with column i of Uinv
        vec = [0] * dim
        for j, cj in enumerate(sf_c.uinv_column(i)):
            if cj:
                bj = ambient_basis[j]
                for k in range(dim):
                    vec[k] += cj * bj[k]
        orders.append(di)
        gens.append(vec)
    return orders, gens
