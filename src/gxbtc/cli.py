"""Command-line interface: consistency checks, twisting, cohomology,
equivalence search, and extension enumeration with machine-readable output.

Exit codes: 0 success, 1 check failed / not equivalent, 2 inconclusive,
64 usage error, 65 malformed input, 70 internal invariant breach,
74 output error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import stat
import sys
import traceback

from . import category, compose, consistency, constructions, equivalence, torsor
from .errors import (
    BudgetExceeded,
    GxError,
    InvalidInput,
    MatchFailure,
    NotACocycle,
)
from .groups import (
    AbelianModule,
    Cochain,
    FiniteGroup,
    U1Module,
    cochain_from_json,
    cochain_to_json,
    cohomology,
    phase_to_json,
)

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70
EX_IOERR = 74

_FLUSH_PIECES = 4096   # buffered text pieces per write to the output


class _ArgumentError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _float_text(value):
    """A float as ``json`` spells it."""
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == -float("inf"):
        return "-Infinity"
    return float.__repr__(value)


def _write_json(payload, stream):
    """Write ``json.dumps(payload, indent=2, sort_keys=True) + "\n"`` to
    ``stream``, a few thousand pieces at a time, never the whole text.

    Takes what ``json`` takes with str dict keys: any other key or value
    type raises TypeError.
    """
    quote = json.encoder.encode_basestring_ascii
    pieces = []

    def encode(value, indent):
        if isinstance(value, str):
            pieces.append(quote(value))
        elif value is None:
            pieces.append("null")
        elif value is True:
            pieces.append("true")
        elif value is False:
            pieces.append("false")
        elif isinstance(value, int):
            pieces.append(int.__repr__(value))
        elif isinstance(value, float):
            pieces.append(_float_text(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                pieces.append("[]")
                return
            inner = indent + "  "
            if all(type(item) is int for item in value):
                pieces.append(f"[\n{inner}" + f",\n{inner}".join(
                    map(int.__repr__, value)) + f"\n{indent}]")
                return
            head = f"[\n{inner}"
            for item in value:
                pieces.append(head)
                head = f",\n{inner}"
                encode(item, inner)
            pieces.append(f"\n{indent}]")
        elif isinstance(value, dict):
            if not value:
                pieces.append("{}")
                return
            inner = indent + "  "
            head = f"{{\n{inner}"
            # quote raises TypeError on a key that is not a str
            for key, item in sorted(value.items()):
                pieces.append(f"{head}{quote(key)}: ")
                head = f",\n{inner}"
                encode(item, inner)
            pieces.append(f"\n{indent}}}")
        else:
            raise TypeError(f"Object of type {type(value).__name__} "
                            "is not JSON serializable")
        if len(pieces) >= _FLUSH_PIECES:
            stream.write("".join(pieces))
            pieces.clear()

    encode(payload, "")
    pieces.append("\n")
    stream.write("".join(pieces))


def _emit(payload, out=None):
    """Write ``payload`` as indented, key-sorted JSON to ``out`` or stdout.

    An OSError from opening, writing or closing the output becomes an
    _OutputError.  A partly written ``out`` file is removed.
    """
    try:
        if not out:
            try:
                _write_json(payload, sys.stdout)
                sys.stdout.flush()
            except OSError:
                _discard_stdout()
                raise
            return
        fh = open(out, "w")
        try:
            with fh:
                _write_json(payload, fh)
        except BaseException:
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(out).st_mode):
                    os.remove(out)
            raise
    except OSError as exc:
        raise _OutputError(exc) from exc


def _discard_stdout():
    """Point a failed stdout at the null device: the text it still holds
    would otherwise fail again, uncaught, in the flush at interpreter exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc


def _load_theory(path):
    return category.theory_from_json(_load_json(path))


def _parse_group(spec):
    name = spec.strip()
    upper = name.upper()
    if not upper.startswith("Z"):
        raise InvalidInput(f"unknown group spec {spec!r}; use Z2, Z3, Z2x2, ...")
    try:
        factors = [int(part.lstrip("zZ") or "1") for part in upper.split("X")]
    except ValueError as exc:
        raise InvalidInput(f"unknown group spec {spec!r}") from exc
    return FiniteGroup.from_cyclic_factors(factors)


def _load_cochain(path, group, module, degree):
    """The degree-``degree`` cochain in ``path``; an input error names the file."""
    blob = _load_json(path)
    try:
        return cochain_from_json(blob, group, module, degree)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _load_twist(path, theory):
    return _load_cochain(path, theory.group, category.abelian_subgroup(theory), 2)


def _load_coefficients(path, theory, root_order):
    """Coefficients from ``path``, or the trivial ones without a path."""
    if not path:
        return torsor.trivial_coefficients(theory, root_order)
    return _load_cochain(path, theory.group, U1Module(root_order), 3)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args):
    theory = _load_theory(args.theory)
    reports = {}
    wanted = args.eq
    if wanted in ("pentagon", "all"):
        reports["pentagon"] = consistency.check_pentagon(
            theory, args.max_defects, args.tol)
    if wanted in ("heptagon", "all"):
        plus, minus = consistency.check_heptagons(theory, args.tol)
        reports["heptagon+"] = plus
        reports["heptagon-"] = minus
    if wanted == "all":
        reports["hexagon"] = consistency.check_hexagon(theory, args.tol)
        reports["eta-assoc"] = consistency.check_eta_associativity(theory, args.tol)
        reports["kappa-sliding"] = consistency.check_kappa_sliding(theory, args.tol)
        reports["structure"] = category.validate(theory, args.tol)
    payload = {
        "theory": args.theory,
        "tolerance": args.tol,
        "reports": {k: (v.to_json() if hasattr(v, "to_json") else v)
                    for k, v in reports.items()},
    }
    worst = max((v.worst_residual for v in reports.values()
                 if hasattr(v, "worst_residual")), default=0.0)
    structure = reports.get("structure", [])
    payload["passed"] = worst < args.tol and not structure
    _emit(payload, args.output)
    return 0 if payload["passed"] else 1


def _cmd_torsor(args):
    theory = _load_theory(args.theory)
    t = _load_twist(args.t, theory)
    order = args.root_order or torsor.default_root_order(theory)
    x = None if args.solve_x else _load_coefficients(args.x, theory, order)
    out = torsor.apply_torsor(theory, t, x, tol=args.tol, root_order=order)
    _emit(category.theory_to_json(out), args.output)
    return 0


def _cmd_obstruction(args):
    theory = _load_theory(args.theory)
    t = _load_twist(args.t, theory)
    order = args.root_order or torsor.default_root_order(theory)
    orr = torsor.relative_obstruction(theory, t, order, args.tol)
    x = torsor.solve_coefficients_for(orr)
    payload = {
        "obstruction": cochain_to_json(orr),
        "trivial_class": x is not None,
        "coefficients": cochain_to_json(x) if x is not None else None,
    }
    _emit(payload, args.output)
    return 0


def _cmd_compose(args):
    theory = _load_theory(args.theory)
    order = args.root_order or torsor.default_root_order(theory)
    first = torsor.TorsorInput(_load_twist(args.t1, theory),
                               _load_coefficients(args.x1, theory, order))
    second = torsor.TorsorInput(_load_twist(args.t2, theory),
                                _load_coefficients(args.x2, theory, order))
    composite, gauge = compose.compose_torsors(theory, first, second,
                                               root_order=order)
    payload = {
        "t": cochain_to_json(composite.t),
        "x": cochain_to_json(composite.x),
        "gauge": _gauge_to_json(gauge),
    }
    _emit(payload, args.output)
    return 0


def _gauge_to_json(gauge):
    return {
        "vertex": [{"charges": list(k), "value": phase_to_json(v)}
                   for k, v in sorted(gauge.vertex.items())],
        "sheet": [{"charge": k[0], "element": k[1], "value": phase_to_json(v)}
                  for k, v in sorted(gauge.sheet.items())],
    }


def _cmd_equiv(args):
    first = _load_theory(args.first)
    second = _load_theory(args.second)
    try:
        witness = equivalence.theories_equivalent(first, second, args.budget,
                                                  args.tol)
    except BudgetExceeded as exc:
        _emit({"equivalent": None, "reason": str(exc)}, args.output)
        return 2
    if witness is None:
        _emit({"equivalent": False}, args.output)
        return 1
    relabeling, gauge = witness
    _emit({"equivalent": True,
           "relabeling": list(relabeling.perm),
           "gauge": _gauge_to_json(gauge)}, args.output)
    return 0


def _cmd_cohomology(args):
    group = _parse_group(args.group)
    if args.coeff.lower() == "u1":
        order = args.root_order or torsor.default_group_root_order(group)
        module = U1Module(order)
    else:
        factors = [int(x) for x in args.coeff.lower().lstrip("z").split("x")]
        module = AbelianModule(factors, group)
    result = cohomology(group, args.degree, module)
    payload = {
        "group": group.name,
        "degree": args.degree,
        "orders": result.orders,
        "size": result.size,
        "pretty": " x ".join(f"Z{d}" for d in result.orders) or "trivial",
        "representatives": [cochain_to_json(rep) for rep in result.representatives],
    }
    _emit(payload, args.output)
    return 0


BUILDERS = {"toric-code": constructions.toric_code,
            "semion": constructions.semion,
            "double-semion": constructions.double_semion,
            "z4-anyons": constructions.z4_anyons,
            "fibonacci": constructions.fibonacci}


def _cmd_build(args):
    if args.kind == "spt":
        group = _parse_group(args.group)
        order = args.root_order or torsor.default_group_root_order(group)
        if args.alpha:
            alpha = _load_cochain(args.alpha, group, U1Module(order), 3)
        else:
            alpha = Cochain.identity(group, 3, U1Module(order))
        theory = constructions.build_spt(group, alpha, args.tol)
    elif args.kind == "trivial-ext":
        group = _parse_group(args.group)
        c0 = _load_theory(args.c0)
        theory = constructions.trivial_extension(c0, group)
    else:
        theory = BUILDERS[args.kind]()
    _emit(category.theory_to_json(theory), args.output)
    return 0


def _cmd_enumerate(args):
    c0 = _load_theory(args.c0)
    group = _parse_group(args.group)
    base = constructions.trivial_extension(c0, group)
    order = args.root_order or torsor.default_root_order(base)
    h2, h3, extensions = torsor.enumerate_extensions(base, order, args.tol)
    entries = []
    unobstructed = []
    for ext in extensions:
        entry = {"fractionalization_class": ext.fractionalization,
                 "defectification_class": ext.defectification,
                 "twist": cochain_to_json(ext.t),
                 "obstructed": ext.theory is None}
        if ext.theory is not None:
            entry["theory_index"] = len(unobstructed)
            unobstructed.append(ext)
        entries.append(entry)
    collapse = _collapse_classes(base, h3, unobstructed, args.tol)
    payload = {
        "base": c0.metadata.get("name", args.c0),
        "group": group.name,
        "fractionalization_classes": h2.orders,
        "defectification_classes": h3.orders,
        "entries": entries,
        "equivalence_collapse": collapse,
    }
    _emit(payload, args.output)
    return 0


def _collapse_classes(base, h3, extensions, tol):
    """Group unobstructed extensions under 1-cochain relabel equivalence.

    ``extensions`` are the unobstructed ones, indexed by theory index, and
    ``h3`` is the H^3(G, U(1)) their alphas come from.  A
    1-cochain z can carry T_{t,alpha_i} onto T_{t',alpha_j} only if its
    relabeling keeps the fusion triples.  ``base`` is a trivial extension,
    so every grade holds a copy of each abelian charge, and a nontrivial
    d(z)(g, h) moves the fusion triple of two such copies.  So z is closed,
    t' = t, and the relabeling must also keep the vacuum and the action;
    none of that depends on alpha.  For each such z the closed form
    omega_z (:func:`equivalence.cocycle_relabel_class`) decides the rest:
    the two are joined exactly when alpha_j ~ alpha_i * omega_z, that is
    when the H^3(G, U(1)) coordinates of alpha_j - alpha_i are those of
    some omega_z.  Classes come in order of their smallest member, members
    ascending.
    """
    grp = base.group
    module = category.abelian_subgroup(base)
    slots = [(g,) for g in grp.nonidentity()]
    zs = [Cochain(grp, 1, module, dict(zip(slots, combo)))
          for combo in itertools.product(module.charges, repeat=len(slots))]
    shifts = {}
    for ext in extensions:
        if ext.fractionalization in shifts:
            continue
        theory = ext.theory
        shifts[ext.fractionalization] = {
            tuple(h3.class_of(equivalence.cocycle_relabel_class(
                theory, z, tol, h3.module.order)))
            for z in zs
            if equivalence.relabeling_from_1cochain(theory, z).fixes(theory)}
    coords = [h3.class_of(ext.alpha) for ext in extensions]
    results = []
    joined = set()
    for idx, ext in enumerate(extensions):
        if idx in joined:
            continue
        members = [idx]
        for jdx in range(idx + 1, len(extensions)):
            other = extensions[jdx]
            if jdx in joined or other.fractionalization != ext.fractionalization:
                continue
            shift = tuple((b - a) % d for a, b, d
                          in zip(coords[idx], coords[jdx], h3.orders))
            if shift in shifts[ext.fractionalization]:
                joined.add(jdx)
                members.append(jdx)
        results.append({"class_representative": idx, "members": members,
                        "verdict": "collapsed" if len(members) > 1
                        else "distinct"})
    return results


# ---------------------------------------------------------------------------
# parser


def _common(p, *options):
    """-o/--output, and the options ("tol", "root-order") ``p`` reads."""
    if "tol" in options:
        p.add_argument("--tol", type=float, default=1e-9)
    if "root-order" in options:
        p.add_argument("--root-order", type=int, default=None)
    p.add_argument("-o", "--output", default=None)


def _check_options(p):
    p.add_argument("theory")
    p.add_argument("--eq", choices=["pentagon", "heptagon", "all"], default="all")
    p.add_argument("--max-defects", type=int, choices=[3, 4], default=4)
    _common(p, "tol")
    return _cmd_check


def _torsor_options(p):
    p.add_argument("theory")
    p.add_argument("--t", required=True)
    coefficients = p.add_mutually_exclusive_group()
    coefficients.add_argument("--x", default=None)
    coefficients.add_argument("--solve-x", action="store_true")
    _common(p, "tol", "root-order")
    return _cmd_torsor


def _obstruction_options(p):
    p.add_argument("theory")
    p.add_argument("--t", required=True)
    _common(p, "tol", "root-order")
    return _cmd_obstruction


def _compose_options(p):
    p.add_argument("theory")
    p.add_argument("--t1", required=True)
    p.add_argument("--x1", default=None)
    p.add_argument("--t2", required=True)
    p.add_argument("--x2", default=None)
    _common(p, "root-order")
    return _cmd_compose


def _equiv_options(p):
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--budget", type=int, default=10000)
    _common(p, "tol")
    return _cmd_equiv


def _cohomology_options(p):
    p.add_argument("--group", required=True)
    p.add_argument("--coeff", required=True,
                   help="'u1' or cyclic factors like 'z2' or 'z2x4'")
    p.add_argument("--degree", type=int, required=True)
    _common(p, "root-order")
    return _cmd_cohomology


def _build_options(p):
    kinds = p.add_subparsers(dest="kind", required=True)
    q = kinds.add_parser("spt", help="one charge per grade, from --alpha")
    q.add_argument("--group", default="Z2")
    q.add_argument("--alpha", default=None)
    _common(q, "tol", "root-order")
    q = kinds.add_parser("trivial-ext", help="--c0 extended by --group")
    q.add_argument("--c0", required=True)
    q.add_argument("--group", default="Z2")
    _common(q)
    for kind in BUILDERS:
        _common(kinds.add_parser(kind, help="fixture"))
    return _cmd_build


def _enumerate_options(p):
    p.add_argument("--c0", required=True)
    p.add_argument("--group", required=True)
    _common(p, "tol", "root-order")
    return _cmd_enumerate


# command -> (help, function that adds its options and returns its handler)
COMMANDS = {
    "check": ("run consistency equations on a theory", _check_options),
    "torsor": ("apply a twist functor to a theory", _torsor_options),
    "obstruction": ("relative obstruction of a twist", _obstruction_options),
    "compose": ("compose two twist functors", _compose_options),
    "equiv": ("search for a relabel+gauge equivalence", _equiv_options),
    "cohomology": ("group cohomology via Smith form", _cohomology_options),
    "build": ("build canonical theories", _build_options),
    "enumerate-extensions": ("twist a trivial extension through all classes",
                             _enumerate_options),
}


def build_parser(command=None):
    """The parser, with only ``command``'s subparser when it names one.

    Its help and error messages for that command are those of the parser
    with every subparser; building one saves most of a short call's
    parsing time.
    """
    parser = _Parser(prog="gxbtc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(func=add_options(p))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except _ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        return args.func(args)
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EX_IOERR
    except (InvalidInput, NotACocycle) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except MatchFailure as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except GxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
