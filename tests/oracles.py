"""Brute-force oracles used to pin expected values independently.

Everything here enumerates; nothing shares code with the Smith-normal-form
path it is checking.  Only usable for tiny groups and modules.
"""

import itertools


def all_normalized_cochains(group, degree, module_order):
    """Yield all normalized cochains as dicts tuple -> exponent (additive)."""
    tuples = list(itertools.product(group.nonidentity(), repeat=degree))
    for values in itertools.product(range(module_order), repeat=len(tuples)):
        yield dict(zip(tuples, values))


def eval_cochain(data, group, args):
    if group.identity in args:
        return 0
    return data.get(tuple(args), 0)


def brute_coboundary(data, group, degree, module_order, action=None):
    """Additive coboundary of an exponent-valued cochain."""
    out = {}
    for args in itertools.product(group.nonidentity(), repeat=degree + 1):
        first = eval_cochain(data, group, args[1:])
        if action is not None:
            first = action(args[0], first)
        acc = first
        for j in range(1, degree + 1):
            merged = args[:j - 1] + (group.op(args[j - 1], args[j]),) + args[j + 1:]
            term = eval_cochain(data, group, merged)
            acc += term if j % 2 == 0 else -term
        last = eval_cochain(data, group, args[:degree])
        acc += last if (degree + 1) % 2 == 0 else -last
        out[args] = acc % module_order
    return out


def brute_u1_cohomology_classes(group, degree, cocycle_order, boundary_order=None):
    """Class count of H^degree(G, U(1)) with mu_N cocycle representatives.

    Coboundaries are drawn from cochains valued in the finer roots
    mu_{boundary_order} (default N * |G|), matching honest U(1) coefficients.
    Returns (number of classes, one exponent-dict representative per class).
    """
    n = cocycle_order
    big = boundary_order if boundary_order is not None else n * group.order
    scale = big // n
    tuples = list(itertools.product(group.nonidentity(), repeat=degree))

    def freeze(data):
        return tuple(data.get(t, 0) % n for t in tuples)

    cocycles = []
    for data in all_normalized_cochains(group, degree, n):
        if all(v == 0 for v in brute_coboundary(data, group, degree, n).values()):
            cocycles.append(freeze(data))
    boundaries = set()
    for data in all_normalized_cochains(group, degree - 1, big):
        db = brute_coboundary(data, group, degree - 1, big)
        if all(v % scale == 0 for v in db.values()):
            boundaries.add(tuple((db.get(t, 0) // scale) % n for t in tuples))
    reps = []
    seen = set()
    for z in cocycles:
        if z in seen:
            continue
        seen.update(tuple((a + b) % n for a, b in zip(z, e)) for e in boundaries)
        reps.append(dict(zip(tuples, z)))
    return len(reps), reps


def brute_abelian_cohomology_classes(group, degree, factors, action=None):
    """Class count of H^degree(G, prod Z_m) by exhaustive enumeration.

    ``action`` maps (g, element tuple) -> element tuple.  Returns
    (class count, cocycle count, coboundary count).
    """
    tuples = list(itertools.product(group.nonidentity(), repeat=degree))
    k = len(factors)

    def vec_coboundary(data, deg):
        out = {}
        for args in itertools.product(group.nonidentity(), repeat=deg + 1):
            def look(a):
                if group.identity in a:
                    return (0,) * k
                return data.get(tuple(a), (0,) * k)
            first = look(args[1:])
            if action is not None:
                first = action(args[0], first)
            acc = list(first)
            for j in range(1, deg + 1):
                merged = args[:j - 1] + (group.op(args[j - 1], args[j]),) + args[j + 1:]
                term = look(merged)
                sign = 1 if j % 2 == 0 else -1
                acc = [a + sign * t for a, t in zip(acc, term)]
            last = look(args[:deg])
            sign = 1 if (deg + 1) % 2 == 0 else -1
            acc = [a + sign * t for a, t in zip(acc, last)]
            out[args] = tuple(a % m for a, m in zip(acc, factors))
        return out

    all_elements = list(itertools.product(*[range(m) for m in factors]))
    cocycles = []
    for values in itertools.product(all_elements, repeat=len(tuples)):
        data = dict(zip(tuples, values))
        if all(all(x == 0 for x in v) for v in vec_coboundary(data, degree).values()):
            cocycles.append(tuple(sorted(data.items())))
    lower = list(itertools.product(group.nonidentity(), repeat=degree - 1))
    boundaries = set()
    for values in itertools.product(all_elements, repeat=len(lower)):
        data = dict(zip(lower, values))
        db = vec_coboundary(data, degree - 1)
        boundaries.add(tuple(sorted(db.items())))
    def add(a, b):
        return tuple(
            (args, tuple((x + y) % m for x, y, m in zip(va, vb, factors)))
            for (args, va), (_, vb) in zip(a, b))
    classes = set()
    for z in cocycles:
        orbit = frozenset(add(z, b) for b in boundaries)
        classes.add(orbit)
    return len(classes), len(cocycles), len(boundaries)


def spectral_radius_2x2(a, b, c, d):
    """Largest eigenvalue magnitude of [[a, b], [c, d]] by closed form."""
    tr, det = a + d, a * d - b * c
    disc = (tr * tr - 4 * det) ** 0.5
    return max(abs((tr + disc) / 2), abs((tr - disc) / 2))


def dense_fusion_violations(n, triples):
    """Every (a, b, c, d) over ``range(n)`` where sum_e N_ab^e N_ec^d differs
    from sum_f N_bc^f N_af^d, in lexicographic order; O(n^5)."""
    fusion = set(triples)

    def mult(a, b, c):
        return 1 if (a, b, c) in fusion else 0

    out = []
    for a, b, c, d in itertools.product(range(n), repeat=4):
        lhs = sum(mult(a, b, e) * mult(e, c, d) for e in range(n))
        rhs = sum(mult(b, c, f) * mult(a, f, d) for f in range(n))
        if lhs != rhs:
            out.append((a, b, c, d))
    return out
