"""Exact integer linear algebra used by the cohomology and gauge solvers.

Everything here works on plain Python ints (no overflow).  A matrix is a
list of rows, and a row is a dense list or a sparse ``{column: entry}``
dict.  The central primitive is the Smith normal form U A V = D.  It
eliminates on sparse rows, so a row or column operation touches only
nonzero entries.  Its pivots keep the fill-in small: a unit in the row
with the fewest nonzeros, in that row's column with the fewest nonzeros,
and only when no unit is left the entry of least magnitude, reduced by
extended-gcd (Bezout) 2x2 steps so that no entry grows by repeated
remainders (Dumas, Saunders and Villard, J. Symbolic Comput. 32 (2001);
Cohen, GTM 138, section 2.4).  The candidates of that rule are read from
sets kept up to date by every row and column operation, not from a scan
of the rows at each pivot: the holders of each column (the rows with an
entry there) and, for each row size, the bucket of unfinished rows that
hold +-1.  They only find the pivots the rule names, so the operations and
their order do not depend on them.  V is carried as sparse columns and made
dense once, at the end; U is kept as the log of the row operations that
produced it, which is replayed to apply U to a vector or to read a column
of its inverse.  Kernels, integer solves, solves modulo N, and solves over
the circle group (rational turns) are derived from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


# row operations of the Smith-form log, as (kind, i, j, c) tuples
SWAP = 0    # swap rows i and j
ADD = 1     # row i += c * row j
NEGATE = 2  # row i = -row i
BEZOUT = 3  # rows i, j = s row i + u row j, v row i + w row j; c = (s, u, v, w),
            # s w - u v = 1


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
            elif kind == BEZOUT:
                s, u, v, w = c
                x[i], x[j] = s * x[i] + u * x[j], v * x[i] + w * x[j]
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
            elif kind == BEZOUT:
                s, u, v, w = c
                x[i], x[j] = w * x[i] - u * x[j], s * x[j] - v * x[i]
            else:
                x[i] = -x[i]
        return x

    def apply_v(self, y):
        """Right transform of a length-``cols`` vector."""
        return [sum(map(mul, row, y)) for row in self.v]


def smith_normal_form(matrix, rows, cols):
    """Compute the Smith normal form of a ``rows`` x ``cols`` integer matrix.

    A row of ``matrix`` is a dense list or a ``{column: entry}`` dict.
    """
    d = [{j: a for j, a in (row.items() if isinstance(row, dict) else enumerate(row))
          if a} for row in matrix]
    ops = []
    vcols = [{j: 1} for j in range(cols)]  # V by columns, made dense at the end
    holders = [set() for _ in range(cols)]  # the rows with an entry in each column
    for i, row in enumerate(d):
        for j in row:
            holders[j].add(i)
    units = {}          # size -> the rows t.. of that many nonzeros that hold +-1
    filed = [0] * rows  # the size each row is filed under in ``units``, or 0

    def refile(r):
        # file row r again after it changed; a finished row is filed nowhere
        vals = d[r].values()
        n = len(vals) if r >= t and (1 in vals or -1 in vals) else 0
        old = filed[r]
        if n != old:
            if old:
                units[old].remove(r)
                if not units[old]:
                    del units[old]
            if n:
                units.setdefault(n, set()).add(r)
            filed[r] = n

    def put(r, k, y):
        # set one entry of row r, keeping the holders of column k
        if y:
            d[r][k] = y
            holders[k].add(r)
        else:
            d[r].pop(k, None)
            holders[k].discard(r)

    def add_entries(dst, src, c):
        # dst += c * src on sparse dicts, dropping the entries that cancel
        for k, x in src.items():
            y = dst.get(k, 0) + c * x
            if y:
                dst[k] = y
            else:
                del dst[k]

    def combine(x, y, s, u):
        # the sparse vector s * x + u * y
        out = {k: s * a for k, a in x.items()} if s else {}
        if u:
            add_entries(out, y, u)
        return out

    def swap_rows(i, j):
        # a column held by one of the two rows moves to the other
        for k in d[i].keys() ^ d[j].keys():
            holders[k] ^= {i, j}
        d[i], d[j] = d[j], d[i]
        refile(i)
        refile(j)
        ops.append((SWAP, i, j, 0))

    def add_row(dst, src, c):
        # row dst += c * row src
        row = d[dst]
        for k, x in d[src].items():
            y = row.get(k)
            if y is None:
                row[k] = c * x
                holders[k].add(dst)
            elif y + c * x:
                row[k] = y + c * x
            else:
                del row[k]
                holders[k].remove(dst)
        refile(dst)
        ops.append((ADD, dst, src, c))

    def add_col(dst, src, c, among):
        # col dst += c * col src; ``among`` holds every row with an entry at
        # src, which is row t or finished rows, so no filing goes stale
        for r in among:
            put(r, dst, d[r].get(dst, 0) + c * d[r][src])
        add_entries(vcols[dst], vcols[src], c)

    def negate_row(i):
        d[i] = {k: -x for k, x in d[i].items()}
        ops.append((NEGATE, i, i, 0))

    def bezout_rows(i, j, k):
        # rows i, j by the determinant-1 step that leaves gcd(a, b) at (i, k)
        # and 0 at (j, k), where a, b are the entries at (i, k) and (j, k)
        a, b = d[i][k], d[j][k]
        g, s, u = _xgcd(a, b)
        v, w = -(b // g), a // g
        ri, rj = d[i], d[j]
        d[i], d[j] = combine(ri, rj, s, u), combine(ri, rj, v, w)
        for r, old in ((i, ri), (j, rj)):
            for m in old.keys() ^ d[r].keys():
                holders[m] ^= {r}
            refile(r)
        ops.append((BEZOUT, i, j, (s, u, v, w)))

    def bezout_cols(i, j):
        # columns i, j by the same step on row t, leaving 0 at (t, j)
        a, b = d[t][i], d[t][j]
        g, s, u = _xgcd(a, b)
        v, w = -(b // g), a // g
        for r in holders[i] | holders[j]:
            x, y = d[r].get(i, 0), d[r].get(j, 0)
            put(r, i, s * x + u * y)
            put(r, j, v * x + w * y)
            refile(r)
        ci, cj = vcols[i], vcols[j]
        vcols[i], vcols[j] = combine(ci, cj, s, u), combine(ci, cj, v, w)

    # Row t is moved to index t by row swaps.  Its pivot column pcol[t] keeps
    # its index, and V's columns are put in pivot order at the end.  Rows t..
    # have no entry in the pivot columns of the finished rows ..t-1, each of
    # which holds its pivot alone, so the holders of a column that is not a
    # pivot column yet are rows t.., and ``units`` files rows t.. alone.
    pcol = []
    t = 0
    for r in range(rows):
        refile(r)
    limit = min(rows, cols)
    while t < limit:
        # a unit in the sparsest row if there is one, the first such row on
        # a tie, else the least magnitude; within the row, the column with
        # the fewest nonzeros
        if units:
            m, pi = 1, min(units[min(units)])
        else:
            m, _, pi = min(((min(map(abs, d[i].values())), len(d[i]), i)
                            for i in range(t, rows) if d[i]), default=(0, 0, 0))
            if not m:
                break
        c = min((len(holders[j]), j) for j, a in d[pi].items() if abs(a) == m)[1]
        if pi != t:
            swap_rows(t, pi)
        while True:
            # clear the pivot column; a remainder takes a Bezout step
            for i in sorted(holders[c] - {t}):
                q, r = divmod(d[i][c], d[t][c])
                if r:
                    bezout_rows(t, i, c)
                else:
                    add_row(i, t, -q)
            # clear the pivot row; column c now has row t alone, until a
            # Bezout step brings in a column that other rows hold
            for j in sorted(j for j in d[t] if j != c):
                q, r = divmod(d[t][j], d[t][c])
                if r:
                    bezout_cols(c, j)
                    break
                add_col(j, c, -q, (t,))
            else:
                break
        if d[t][c] < 0:
            negate_row(t)
        pcol.append(c)
        holders[c] = {t}  # a new set: clearing never shrinks a set's table
        t += 1
        refile(t - 1)  # row t - 1 is finished and leaves ``units``

    # pivot columns first, in pivot order, then the others in index order
    vcols = [vcols[j] for j in pcol + sorted(set(range(cols)).difference(pcol))]
    # the holders still name the old columns: nothing below reads them
    for i, j in enumerate(pcol):
        d[i] = {i: d[i][j]}
    # enforce the divisibility chain d_i | d_{i+1}: the block a, b of rows
    # and columns i, i+1 becomes gcd(a, b), lcm(a, b)
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            if d[i + 1][i + 1] % d[i][i]:
                changed = True
                add_col(i, i + 1, 1, (i + 1,))
                bezout_rows(i, i + 1, i)
                add_col(i + 1, i, -(d[i][i + 1] // d[i][i]), (i,))
    diag = [d[i].get(i, 0) for i in range(limit)]
    v = [[0] * cols for _ in range(cols)]
    for j, col in enumerate(vcols):
        for i, a in col.items():
            v[i][j] = a
    return SmithForm(rows, cols, diag, ops, v)


def _xgcd(a, b):
    """(g, s, u) with g = gcd(a, b) > 0 and s a + u b = g."""
    s0, s1, u0, u1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    return (a, s0, u0) if a > 0 else (-a, -s0, -u0)


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
            y[i] = (ci, di)
    # y_k = c_k / (denom d_k); each x_i is summed as one numerator over
    # denom * lcm(d_k), then reduced into [0, 1)
    lcm_d = lcm(*(di for _, di in y.values()))
    terms = [(k, ci * (lcm_d // di)) for k, (ci, di) in y.items()]
    whole = denom * lcm_d
    return [Fraction(sum(row[k] * yk for k, yk in terms) % whole, whole) for row in sf.v]


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
