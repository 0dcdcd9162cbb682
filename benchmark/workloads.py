"""Inputs, operations and output checks of the four benchmark workloads.

A workload's ``build(workdir, seed)`` writes every input file the program
reads and returns the list of operations a round runs, in order.  An
operation is one ``gxbtc`` CLI call (or, for H^3(S3, U(1)), one library
call the CLI cannot express), the exit code it must give, the file it
writes, and a check of that file.  Checks raise :class:`CheckFailed`; they
recompute what they can without the program (fusion rules, pentagons,
coboundaries, textbook cohomology orders) and use the program's library
only to apply a returned witness or to replay the composition law.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

TOL = 1e-9
TAU = 2.0 * math.pi


class CheckFailed(Exception):
    """An output of the program disagrees with what the benchmark expects."""


@dataclass
class Op:
    """One timed operation of a round."""

    name: str
    argv: Optional[list] = None          # CLI arguments, run through cli.main
    call: Optional[Callable] = None      # library call returning an exit code
    expected_exit: int = 0
    output: Optional[str] = None
    check: Optional[Callable] = None     # check(parsed_output) -> None


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def stream(seed, purpose):
    """Independent random stream per purpose, fixed by the workload seed."""
    return random.Random(f"{seed}/{purpose}")


def phase(obj):
    """Complex value of a serialized phase ({"turns": "p/q"} or re/im)."""
    if "turns" in obj:
        num, _, den = obj["turns"].partition("/")
        return cmath.exp(1j * TAU * float(Fraction(int(num), int(den or "1"))))
    return complex(obj["re"], obj.get("im", 0.0))


def turns_of(value, order):
    """Exact turns k/order of a root of unity, or None when off the lattice."""
    k = round(cmath.phase(value) / TAU * order) % order
    if abs(value - cmath.exp(1j * TAU * k / order)) > 1e-9:
        return None
    return Fraction(k, order)


# ---------------------------------------------------------------------------
# groups, written out independently of gxbtc.groups


def cyclic_product_table(factors):
    """Mixed-radix multiplication table of Z_{m1} x ... (gxbtc's convention)."""
    elems = list(itertools.product(*[range(m) for m in factors]))
    index = {e: i for i, e in enumerate(elems)}
    return [[index[tuple((x + y) % m for x, y, m in zip(a, b, factors))]
             for b in elems] for a in elems]


def s3_table():
    """S3 as permutations of three points; element 0 is the identity."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms]
             for p in perms]
    sign = [sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]) % 2
            for p in perms]
    return table, sign


def coboundary_turns(table, values, degree, modulus):
    """Number of (degree+1)-tuples where d(omega) is nonzero modulo ``modulus``.

    ``values`` maps a degree-tuple to a rational or a residue; missing
    tuples are 0 (normalized cochains).  Trivial action, additive notation.
    """
    n = len(table)
    bad = 0
    for args in itertools.product(range(n), repeat=degree + 1):
        total = values.get(args[1:], 0)
        for i in range(degree):
            merged = args[:i] + (table[args[i]][args[i + 1]],) + args[i + 2:]
            total += (-1) ** (i + 1) * values.get(merged, 0)
        total += (-1) ** (degree + 1) * values.get(args[:-1], 0)
        if total % modulus != 0:
            bad += 1
    return bad


def primary_parts(orders):
    """Sorted prime-power cyclic factors of a product of cyclic groups."""
    parts = []
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                parts.append(q)
            p += 1
    return sorted(parts)


# ---------------------------------------------------------------------------
# theory tables read from JSON


def tables(theory_json):
    """F, R, U, eta as dicts of complex values keyed by tuples."""
    return {
        "F": {tuple(e["charges"]): phase(e["value"]) for e in theory_json["F"]},
        "R": {tuple(e["charges"]): phase(e["value"]) for e in theory_json["R"]},
        "U": {(e["sheet"], *e["charges"]): phase(e["value"])
              for e in theory_json["U"]},
        "eta": {(e["charge"], *e["pair"]): phase(e["value"])
                for e in theory_json["eta"]},
    }


def fusion_map(theory_json):
    """(a, b) -> c for a theory whose fusion has one outcome per pair."""
    out = {}
    for a, b, c in theory_json["fusion"]:
        require((a, b) not in out, f"fusion ({a},{b}) has several outcomes")
        out[(a, b)] = c
    return out


# ---------------------------------------------------------------------------
# twist-s3


TORIC_E = 1   # toric code charges 1, e, m, f fuse by XOR of their indices


def check_twist_s3(out, base, table, sign):
    """Fusion, pentagon and identity-grade checks of the twisted S3 theory."""
    n0, order = 4, len(table)
    n = n0 * order
    require([list(r) for r in out["group"]["table"]] == table,
            "group table of the output is not the S3 table of the input")
    require([c["grade"] for c in out["charges"]] ==
            [g for g in range(order) for _ in range(n0)], "charge grades changed")

    def t(g, h):
        return TORIC_E if sign[g] and sign[h] else 0

    expected = {(a + n0 * g, b + n0 * h, ((a ^ b) ^ t(g, h)) + n0 * table[g][h])
                for a in range(n0) for b in range(n0)
                for g in range(order) for h in range(order)}
    got = {tuple(x) for x in out["fusion"]}
    require(got == expected, "fusion differs from a_g x b_h = t(g,h) x (a x b)")

    import numpy as np  # local, so worker.py times the first numpy import in gxbtc.cli

    fuse = np.zeros((n, n), dtype=np.int64)
    for (a, b), c in fusion_map(out).items():
        fuse[a, b] = c
    f3 = np.full((n, n, n), np.nan, dtype=np.complex128)
    for e in out["F"]:
        a, b, c, d, ab, bc = e["charges"]
        require(ab == fuse[a, b] and bc == fuse[b, c] and d == fuse[ab, c],
                f"F entry {e['charges']} is off the fusion channels")
        f3[a, b, c] = phase(e["value"])
    require(not np.isnan(f3).any(), "F table misses some (a, b, c)")
    a = np.arange(n)[:, None, None, None]
    b = np.arange(n)[None, :, None, None]
    c = np.arange(n)[None, None, :, None]
    d = np.arange(n)[None, None, None, :]
    lhs = f3[fuse[a, b], c, d] * f3[a, b, fuse[c, d]]
    rhs = f3[a, b, c] * f3[a, fuse[b, c], d] * f3[b, c, d]
    worst = float(np.abs(lhs - rhs).max())
    require(worst < TOL, f"scalar pentagon fails over {n ** 4} quadruples: {worst:.3e}")

    mine, theirs = tables(out), tables(base)
    ident = set(range(n0))
    for key, val in theirs["F"].items():
        if set(key[:3]) <= ident:
            require(abs(mine["F"].get(key, 0) - val) < TOL, f"identity-graded F{key} changed")
    for key, val in theirs["R"].items():
        if set(key[:2]) <= ident:
            require(abs(mine["R"].get(key, 0) - val) < TOL, f"identity-graded R{key} changed")
    for key, val in theirs["U"].items():
        if set(key[1:3]) <= ident:
            require(abs(mine["U"].get(key, 0) - val) < TOL, f"identity-graded U{key} changed")
    r = theirs["R"]
    for (x, g, h), val in theirs["eta"].items():
        if x in ident:
            y = t(g, h)
            mono = r[(x, y, x ^ y)] * r[(y, x, x ^ y)]
            require(abs(mine["eta"].get((x, g, h), 0) - val * mono) < TOL,
                    f"identity-graded eta{(x, g, h)} is not base eta times monodromy")


def check_report_passed(out):
    require(out.get("passed") is True, "check reports passed = false")


def build_twist_s3(workdir, seed):
    from gxbtc import category, constructions
    from gxbtc.groups import FiniteGroup

    table, sign = s3_table()
    s3 = FiniteGroup.from_table(table, "S3")
    ext = constructions.trivial_extension(constructions.toric_code(), s3)
    base = category.theory_to_json(ext)
    write_json(workdir / "ext.json", base)
    write_json(workdir / "t.json", {
        "degree": 2,
        "entries": [{"args": [g, h], "value": TORIC_E}
                    for g in range(6) for h in range(6) if sign[g] and sign[h]]})
    out = str(workdir / "twisted.json")
    return [
        Op("torsor", ["torsor", str(workdir / "ext.json"), "--t", str(workdir / "t.json"),
                      "--solve-x", "-o", out], output=out,
           check=lambda o: check_twist_s3(o, base, table, sign)),
        Op("check", ["check", out, "-o", str(workdir / "report.json")],
           output=str(workdir / "report.json"), check=check_report_passed),
    ]


# ---------------------------------------------------------------------------
# enumerate-z2x2


def check_enumerate(out):
    """Kuenneth class counts, entry grid, obstruction and collapse structure."""
    require(out["fractionalization_classes"] == [2, 2, 2],
            "H^2(Z2xZ2, Z2) should be Z2^3")
    require(out["defectification_classes"] == [2, 2, 2],
            "H^3(Z2xZ2, U(1)) should be Z2^3")
    entries = out["entries"]
    pairs = [(e["fractionalization_class"], e["defectification_class"]) for e in entries]
    require(sorted(pairs) == [(i, j) for i in range(8) for j in range(8)],
            "entries are not each (fractionalization, defectification) pair once")
    obstructed = {}
    frac_of_theory = {}
    for e in entries:
        fc = e["fractionalization_class"]
        require(obstructed.setdefault(fc, e["obstructed"]) == e["obstructed"],
                f"obstruction varies inside fractionalization class {fc}")
        if not e["twist"]["entries"]:
            require(not e["obstructed"], "the trivial twist is obstructed")
        if not e["obstructed"]:
            frac_of_theory[e["theory_index"]] = fc
    require(sorted(frac_of_theory) == list(range(len(frac_of_theory))),
            "theory indices are not 0..n-1")
    seen = []
    for item in out["equivalence_collapse"]:
        require(item.get("verdict") in ("collapsed", "distinct"),
                f"collapse verdict {item.get('verdict')!r}")
        members = item["members"]
        require(item["class_representative"] in members, "representative outside its class")
        require(len({frac_of_theory.get(m) for m in members}) == 1,
                f"collapse class {members} straddles fractionalization classes")
        seen.extend(members)
    require(sorted(seen) == sorted(frac_of_theory),
            "collapse classes do not partition the unobstructed theories")


def build_enumerate(workdir, seed):
    from gxbtc import category, constructions

    write_json(workdir / "semion.json", category.theory_to_json(constructions.semion()))
    out = str(workdir / "enumerate.json")
    return [Op("enumerate", ["enumerate-extensions", "--c0", str(workdir / "semion.json"),
                             "--group", "Z2x2", "-o", out],
               output=out, check=check_enumerate)]


# ---------------------------------------------------------------------------
# cohomology


COHOMOLOGY_CASES = [
    # CLI group spec, its cyclic factors, coefficients, degree, textbook orders
    ("Z6", [6], "u1", 3, [6]),
    ("Z4", [4], "u1", 4, []),
    ("Z2x2", [2, 2], "u1", 3, [2, 2, 2]),
    ("Z2x2", [2, 2], "u1", 4, [2, 2]),
    ("Z2x2", [2, 2], "z2x2", 3, [2] * 8),
]
S3_ROOT_ORDER = 24


def check_cohomology(out, table, degree, coeff, textbook):
    """Orders match the textbook group; every representative is closed."""
    require(primary_parts(out["orders"]) == primary_parts(textbook),
            f"H^{degree} orders {out['orders']} differ from {textbook}")
    require(len(out["representatives"]) == len(out["orders"]),
            "one representative per cyclic factor expected")
    for rep in out["representatives"]:
        require(rep["degree"] == degree, "representative has the wrong degree")
        if coeff == "u1":
            modulus = Fraction(1)
            values = {}
            for e in rep["entries"]:
                turns = turns_of(phase(e["value"]), math.lcm(len(table), 8))
                require(turns is not None, f"representative value {e['value']} is not a root")
                values[tuple(e["args"])] = turns
            require(coboundary_turns(table, values, degree, modulus) == 0,
                    "a U(1) representative is not closed")
        else:
            factors = [int(x) for x in coeff.lstrip("z").split("x")]
            for i, m in enumerate(factors):
                values = {tuple(e["args"]): e["value"][i] for e in rep["entries"]}
                require(coboundary_turns(table, values, degree, m) == 0,
                        "a finite-coefficient representative is not closed")


def s3_cohomology_call(output):
    """H^3(S3, U(1)) through the library; the CLI parses only cyclic products."""
    def call():
        from gxbtc.groups import FiniteGroup, U1Module, cochain_to_json, cohomology

        s3 = FiniteGroup.from_table(s3_table()[0], "S3")
        result = cohomology(s3, 3, U1Module(S3_ROOT_ORDER))
        write_json(output, {"orders": result.orders, "representatives":
                            [cochain_to_json(r) for r in result.representatives]})
        return 0
    return call


def build_cohomology(workdir, seed):
    ops = []
    for group, factors, coeff, degree, textbook in COHOMOLOGY_CASES:
        out = str(workdir / f"h{degree}-{group}-{coeff}.json")
        table = cyclic_product_table(factors)
        ops.append(Op(f"cohomology {group} {coeff} {degree}",
                      ["cohomology", "--group", group, "--coeff", coeff,
                       "--degree", str(degree), "-o", out], output=out,
                      check=lambda o, t=table, d=degree, c=coeff, x=textbook:
                      check_cohomology(o, t, d, c, x)))
    out = str(workdir / "h3-S3-u1.json")
    ops.append(Op("cohomology S3 u1 3", call=s3_cohomology_call(out), output=out,
                  check=lambda o: check_cohomology(o, s3_table()[0], 3, "u1", [6])))
    return ops


# ---------------------------------------------------------------------------
# compose-equiv


COMPOSE_BASES = ["toric_code", "double_semion", "z4_anyons"]
SPT_ORDERS = range(2, 7)
FAULT_ORDER = 13   # root order lcm(13, 8) = 104 > 96, the snap denominator cap


def type_one_cocycle(n, p):
    """alpha_p(a,b,c) = p a (b + c - [b+c]_n) / n^2 turns on Z_n."""
    return {(a, b, c): Fraction(p * a * (b + c - (b + c) % n), n * n)
            for a in range(1, n) for b in range(1, n) for c in range(1, n)}


def random_coboundary(n, order, rng):
    """d(eps) in turns for a random normalized 2-cochain eps valued in mu_order."""
    eps = {(a, b): Fraction(rng.randrange(order), order)
           for a in range(1, n) for b in range(1, n)}
    e = lambda a, b: eps.get((a, b), 0)  # noqa: E731
    return {(a, b, c): e(b, c) - e((a + b) % n, c) + e(a, (b + c) % n) - e(a, b)
            for a in range(1, n) for b in range(1, n) for c in range(1, n)}


def spt_json(n, turns):
    from gxbtc import category, constructions
    from gxbtc.groups import Cochain, FiniteGroup, U1Module, turn_phase

    order = math.lcm(n, 8)
    group = FiniteGroup.cyclic(n)
    alpha = Cochain(group, 3, U1Module(order),
                    {k: turn_phase(v % 1) for k, v in turns.items()})
    return category.theory_to_json(constructions.build_spt(group, alpha))


def random_gauge(theory, rng):
    """Random mu_8 vertex and sheet phases obeying the vacuum-line rules."""
    from gxbtc.equivalence import GaugeTransform
    from gxbtc.groups import turn_phase

    vac, ident = theory.vacuum, theory.group.identity
    mu8 = lambda: turn_phase(Fraction(rng.randrange(8), 8))  # noqa: E731
    vertex = {(a, b, c): mu8() for a, b, c in theory.fusion_triples()
              if vac not in (a, b)}
    sheet = {(a, g): mu8() for a in theory.charges() if a != vac
             for g in theory.group.elements() if g != ident}
    return GaugeTransform(vertex, sheet)


def random_relabeling(theory, rng):
    from gxbtc.equivalence import Relabeling

    perm = list(theory.charges())
    for g in theory.group.elements():
        block = list(theory.charges_of_grade(g))
        images = block[:]
        rng.shuffle(images)
        for src, dst in zip(block, images):
            perm[src] = dst
    return Relabeling(tuple(perm))


def gauge_from_json(obj):
    from gxbtc.equivalence import GaugeTransform

    return GaugeTransform(
        {tuple(v["charges"]): phase(v["value"]) for v in obj["vertex"]},
        {(s["charge"], s["element"]): phase(s["value"]) for s in obj["sheet"]})


def check_equiv(out, first_path, second_path, expected):
    """Verdict known by construction; a witness must map first onto second."""
    from gxbtc import category, equivalence

    require(out.get("equivalent") is expected,
            f"equiv verdict {out.get('equivalent')!r}, expected {expected!r}")
    if not expected:
        return
    first = category.theory_from_json(read_json(first_path))
    second = category.theory_from_json(read_json(second_path))
    moved = equivalence.relabel(first, equivalence.Relabeling(tuple(out["relabeling"])))
    moved = equivalence.apply_gauge(moved, gauge_from_json(out["gauge"]))
    require(moved.fusion_triples() == second.fusion_triples() and
            moved.vacuum == second.vacuum, "witness relabeling misses the fusion")
    worst = category.tables_distance(moved, second)
    require(worst < TOL, f"witness reproduces the second theory only to {worst:.3e}")


class ComposeLaw:
    """Composition law of one base theory, replayed through the library.

    The intermediate theories (base twisted by t1, default coefficients)
    are shared by the four pairs with the same first twist.
    """

    def __init__(self, base_path):
        self.base_path = base_path
        self._base = None
        self._mids = {}

    def base(self):
        if self._base is None:
            from gxbtc import category
            self._base = category.theory_from_json(read_json(self.base_path))
        return self._base

    def twist(self, value):
        from gxbtc import category
        from gxbtc.groups import Cochain

        base = self.base()
        module = category.abelian_subgroup(base)
        return Cochain(base.group, 2, module, {(1, 1): value} if value else {})

    def mid(self, value):
        from gxbtc import torsor

        if value not in self._mids:
            base = self.base()
            self._mids[value] = torsor.apply_torsor(
                base, self.twist(value), torsor.trivial_coefficients(base))
        return self._mids[value]

    def check(self, out, v1, v2):
        from gxbtc import category, equivalence, torsor
        from gxbtc.groups import U1Module, cochain_from_json

        base = self.base()
        fuse = fusion_map(read_json(self.base_path))
        product = fuse[(v1, v2)]
        got = {tuple(e["args"]): e["value"] for e in out["t"]["entries"]}
        require(got == ({(1, 1): product} if product != base.vacuum else {}),
                f"composite twist {got} is not the fusion product {v1} x {v2}")
        mid = self.mid(v1)
        sequential = torsor.apply_torsor(mid, self.twist(v2),
                                         torsor.trivial_coefficients(mid),
                                         check_preconditions=False)
        x = cochain_from_json(out["x"], base.group,
                              U1Module(torsor.default_root_order(base)))
        single = torsor.apply_torsor(base, self.twist(product), x,
                                     check_preconditions=False)
        gauged = equivalence.apply_gauge(single, gauge_from_json(out["gauge"]))
        worst = category.tables_distance(gauged, sequential)
        require(worst < TOL, f"gauged composite differs from the sequence by {worst:.3e}")


def build_compose_equiv(workdir, seed):
    from gxbtc import category, constructions, equivalence, torsor
    from gxbtc.groups import FiniteGroup

    z2 = FiniteGroup.cyclic(2)
    ops = []
    equiv_ops = []
    for name in COMPOSE_BASES:
        base = constructions.trivial_extension(getattr(constructions, name)(), z2)
        base_path = workdir / f"{name}.json"
        write_json(base_path, category.theory_to_json(base))
        values = list(category.abelian_subgroup(base).charges)
        law = ComposeLaw(base_path)
        for v in values:
            write_json(workdir / f"{name}-t{v}.json", {
                "degree": 2, "entries": [{"args": [1, 1], "value": v}] if v else []})
        for v1, v2 in itertools.product(values, repeat=2):
            out = str(workdir / f"{name}-compose-{v1}-{v2}.json")
            ops.append(Op(f"compose {name} {v1} {v2}",
                          ["compose", str(base_path), "--t1", str(workdir / f"{name}-t{v1}.json"),
                           "--t2", str(workdir / f"{name}-t{v2}.json"), "-o", out],
                          output=out, check=lambda o, a=v1, b=v2, law=law: law.check(o, a, b)))
        rng = stream(seed, f"relabel/{name}")
        for v in values:
            twisted = torsor.apply_torsor(base, law.twist(v))
            moved = equivalence.relabel(twisted, random_relabeling(twisted, rng))
            copy = equivalence.apply_gauge(moved, random_gauge(moved, rng))
            first, second = workdir / f"{name}-tw{v}.json", workdir / f"{name}-tw{v}-copy.json"
            write_json(first, category.theory_to_json(twisted))
            write_json(second, category.theory_to_json(copy))
            equiv_ops.append((f"equiv {name} twist {v}", first, second, True))
    rng = stream(seed, "spt")
    for n in SPT_ORDERS:
        order = math.lcm(n, 8)
        for p, q in itertools.product(range(n), repeat=2):
            first, second = workdir / f"spt{n}-{p}.json", workdir / f"spt{n}-{p}-{q}.json"
            if not first.exists():
                write_json(first, spt_json(n, type_one_cocycle(n, p)))
            d_eps = random_coboundary(n, order, rng)
            alpha = type_one_cocycle(n, q)
            write_json(second, spt_json(n, {k: alpha[k] + d_eps[k] for k in alpha}))
            equiv_ops.append((f"equiv spt Z{n} {p} {q}", first, second, p == q))
    n = FAULT_ORDER
    first, second = workdir / f"spt{n}-0.json", workdir / f"spt{n}-0-gauged.json"
    write_json(first, spt_json(n, type_one_cocycle(n, 0)))
    write_json(second, spt_json(n, random_coboundary(n, math.lcm(n, 8), rng)))
    equiv_ops.append((f"equiv spt Z{n} 0 0", first, second, True))
    for label, first, second, expected in equiv_ops:
        out = str(workdir / f"{Path(second).stem}-equiv.json")
        ops.append(Op(label, ["equiv", str(first), str(second), "-o", out],
                      expected_exit=0 if expected else 1, output=out,
                      check=lambda o, a=first, b=second, e=expected: check_equiv(o, a, b, e)))
    return ops


WORKLOADS = {
    "twist-s3": build_twist_s3,
    "enumerate-z2x2": build_enumerate,
    "cohomology": build_cohomology,
    "compose-equiv": build_compose_equiv,
}
