"""Spans around the public entry points of each gxbtc module.

Used only by the traced run.  :meth:`Tracer.install` replaces each wrapped
function in every ``gxbtc`` module that holds it, because a
``from ... import`` binds its own copy of the name.  Spans are kept in
memory as (name, start, end, parent) and turned into per-layer metrics at
the end: a span's self time is its duration minus the time covered by its
child spans.  ``cli._collapse_classes``, ``groups._cached_snf`` and
``equivalence._phase_ratio_turns`` are private but wrapped anyway; they are
the layer boundaries the program has.
"""

from __future__ import annotations

import functools
import operator
import statistics
import sys
import time
from collections import defaultdict

# span name -> (module, attribute); "Class.method" wraps a method
SPANS = {
    "cli.call": ("cli", "main"),
    "cli.collapse": ("cli", "_collapse_classes"),
    "torsor.apply": ("torsor", "apply_torsor"),
    "torsor.fusion": ("torsor", "torsored_fusion"),
    "torsor.action": ("torsor", "torsored_action"),
    "torsor.f": ("torsor", "torsored_f"),
    "torsor.r": ("torsor", "torsored_r"),
    "torsor.u": ("torsor", "torsored_u"),
    "torsor.eta": ("torsor", "torsored_eta"),
    "torsor.obstruction": ("torsor", "relative_obstruction"),
    "torsor.validate_twist": ("torsor", "validate_two_cocycle"),
    "category.validate": ("category", "validate"),
    "category.from_json": ("category", "theory_from_json"),
    "category.to_json": ("category", "theory_to_json"),
    "category.abelian_subgroup": ("category", "abelian_subgroup"),
    "consistency.pentagon": ("consistency", "check_pentagon"),
    "consistency.heptagon": ("consistency", "check_heptagons"),
    "consistency.hexagon": ("consistency", "check_hexagon"),
    "consistency.eta_assoc": ("consistency", "check_eta_associativity"),
    "consistency.kappa": ("consistency", "check_kappa_sliding"),
    "consistency.torsorable": ("consistency", "base_theory_torsorable"),
    "consistency.defect_obstruction": ("consistency", "defectification_obstruction"),
    "intlin.snf": ("intlin", "smith_normal_form"),
    "intlin.solve_integer": ("intlin", "solve_integer"),
    "intlin.solve_mod": ("intlin", "solve_mod"),
    "intlin.solve_turns": ("intlin", "solve_turns"),
    "intlin.kernel": ("intlin", "integer_kernel"),
    "intlin.congruence_kernel": ("intlin", "congruence_kernel_lattice"),
    "intlin.lattice_basis": ("intlin", "lattice_basis"),
    "intlin.quotient": ("intlin", "quotient_group"),
    "groups.cohomology": ("groups", "cohomology"),
    "groups.cohomologous": ("groups", "cohomologous"),
    "groups.snf_cache": ("groups", "_cached_snf"),
    "groups.coboundary": ("groups", "Cochain.coboundary"),
    "groups.coboundary_matrix": ("groups", "_coboundary_matrix"),
    "groups.snap": ("groups", "snap_turns"),
    "equivalence.gauge_match": ("equivalence", "solve_gauge_matching"),
    "equivalence.phase_ratio": ("equivalence", "_phase_ratio_turns"),
    "equivalence.relabel": ("equivalence", "relabel"),
    "equivalence.relabel_1cochain": ("equivalence", "relabel_by_1cochain"),
    "equivalence.apply_gauge": ("equivalence", "apply_gauge"),
    "equivalence.search": ("equivalence", "theories_equivalent"),
    "compose.compose": ("compose", "compose_torsors"),
    "compose.correction": ("compose", "correction_coefficients"),
    "compose.gauge": ("compose", "composition_gauge"),
    "constructions.trivial_extension": ("constructions", "trivial_extension"),
    "constructions.build_spt": ("constructions", "build_spt"),
}

# per-layer self-time metric -> spans whose self time it sums
SELF_TIMES = {
    "torsor.apply.s": ["torsor.apply"],
    "torsor.fusion.s": ["torsor.fusion"],
    "torsor.action.s": ["torsor.action"],
    "torsor.f.s": ["torsor.f"],
    "torsor.r.s": ["torsor.r"],
    "torsor.u.s": ["torsor.u"],
    "torsor.eta.s": ["torsor.eta"],
    "torsor.obstruction.s": ["torsor.obstruction"],
    "torsor.validate_twist.s": ["torsor.validate_twist"],
    "category.validate.s": ["category.validate"],
    "category.from_json.s": ["category.from_json"],
    "category.to_json.s": ["category.to_json"],
    "consistency.pentagon.s": ["consistency.pentagon"],
    "consistency.heptagon.s": ["consistency.heptagon"],
    "consistency.other.s": ["consistency.hexagon", "consistency.eta_assoc",
                            "consistency.kappa"],
    "consistency.defect_obstruction.s": ["consistency.defect_obstruction"],
    "intlin.snf.s": ["intlin.snf"],
    "intlin.solve.s": ["intlin.solve_integer", "intlin.solve_mod", "intlin.solve_turns"],
    "intlin.lattice.s": ["intlin.kernel", "intlin.congruence_kernel",
                         "intlin.lattice_basis", "intlin.quotient"],
    "groups.cohomology.s": ["groups.cohomology"],
    "groups.cohomologous.s": ["groups.cohomologous"],
    "groups.coboundary.s": ["groups.coboundary", "groups.coboundary_matrix"],
    "groups.snap.s": ["groups.snap"],
    "equivalence.gauge_match.s": ["equivalence.gauge_match"],
    "equivalence.phase_ratio.s": ["equivalence.phase_ratio"],
    "equivalence.relabel.s": ["equivalence.relabel", "equivalence.relabel_1cochain"],
    "equivalence.apply_gauge.s": ["equivalence.apply_gauge"],
    "compose.compose.s": ["compose.compose"],
    "compose.correction.s": ["compose.correction"],
    "compose.gauge.s": ["compose.gauge"],
    "cli.collapse.s": ["cli.collapse"],
    "constructions.trivial_extension.s": ["constructions.trivial_extension"],
    "constructions.build_spt.s": ["constructions.build_spt"],
}

# per-layer call-count metric -> spans it counts
CALLS = {
    "torsor.apply.calls": ["torsor.apply"],
    "torsor.fusion.calls": ["torsor.fusion"],
    "torsor.validate_twist.calls": ["torsor.validate_twist"],
    "consistency.torsorable.calls": ["consistency.torsorable"],
    "intlin.snf.calls": ["intlin.snf"],
    "intlin.solve.calls": ["intlin.solve_integer", "intlin.solve_mod", "intlin.solve_turns"],
    "groups.cohomology.calls": ["groups.cohomology"],
    "groups.cohomologous.calls": ["groups.cohomologous"],
    "groups.coboundary.calls": ["groups.coboundary", "groups.coboundary_matrix"],
    "groups.snap.calls": ["groups.snap"],
    "equivalence.gauge_match.calls": ["equivalence.gauge_match"],
    "equivalence.phase_ratio.calls": ["equivalence.phase_ratio"],
    "equivalence.relabel.calls": ["equivalence.relabel"],
}

# counts recorded by hooks below, reported as they are
COUNTS = [
    "torsor.f.entries",
    "category.abelian_subgroup.misses",
    "consistency.pentagon.checked",
    "consistency.heptagon.checked",
    "consistency.torsorable.misses",
    "intlin.snf.cells",
    "intlin.snf.max_cells",
    "groups.snf_cache.hits",
    "groups.snf_cache.misses",
    "equivalence.gauge_match.solved",
    "equivalence.gauge_match.refuted",
    "equivalence.gauge_match.undecided",
    "equivalence.search.candidates",
    "cli.collapse.cochains_tried",
    "cli.collapse.gauge_attempts",
]

MAXIMA = {"intlin.snf.max_cells"}   # counts that keep a maximum, not a sum

RATIOS = {
    # metric -> (numerator count, denominator count)
    "equivalence.search.gauge_ratio": ("equivalence.search.gauge_attempts",
                                       "equivalence.search.candidates"),
    "cli.collapse.gauge_ratio": ("cli.collapse.gauge_attempts",
                                 "cli.collapse.cochains_tried"),
}


def metric_units():
    """Unit of every per-layer metric the traced run reports."""
    units = {"import.s": "s", "trace.wall_s": "s"}
    units.update({name: "s" for name in SELF_TIMES})
    units.update({name: "count" for name in CALLS})
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    return units


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names = []          # span name per span
        self.starts = []
        self.ends = []
        self.parents = []        # index of the enclosing span, or -1
        self.stack = []
        self.counts = defaultdict(int)
        self.active = True       # spans are recorded only while active
        self.segment_start = 0   # first span of the segment cut() closes next

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        key = name.replace(".", "_")
        pre = getattr(self, "_pre_" + key, None)
        post = getattr(self, "_post_" + key, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            state = pre(idx, args, kwargs) if pre else None
            outcome = None
            tracer.starts[idx] = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer.stack.pop()
                if post:
                    post(idx, state, outcome)
        return wrapper

    def install(self):
        """Wrap every span target wherever a gxbtc module binds it."""
        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                   if name == "gxbtc" or name.startswith("gxbtc.")}
        for span, (modname, attr) in SPANS.items():
            mod = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                setattr(owner, meth, self._wrap(span, owner.__dict__[meth]))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(span, original)
            for holder in modules.values():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)

    def parent_name(self, idx):
        parent = self.parents[idx]
        return self.names[parent] if parent >= 0 else None

    # -- counting hooks: _pre_<span>(idx, args, kwargs) -> state, then
    # -- _post_<span>(idx, state, outcome); outcome is the result or exception

    def _post_torsor_f(self, idx, state, outcome):
        if isinstance(outcome, dict):
            self.counts["torsor.f.entries"] += len(outcome)

    def _pre_category_abelian_subgroup(self, idx, args, kwargs):
        from gxbtc import category
        return args[0] not in category._ABELIAN_CACHE

    def _post_category_abelian_subgroup(self, idx, missed, outcome):
        self.counts["category.abelian_subgroup.misses"] += int(missed)

    def _pre_consistency_torsorable(self, idx, args, kwargs):
        from gxbtc import consistency
        return args[0] not in consistency._TORSORABLE_CACHE

    def _post_consistency_torsorable(self, idx, missed, outcome):
        self.counts["consistency.torsorable.misses"] += int(missed)

    def _post_consistency_pentagon(self, idx, state, outcome):
        if hasattr(outcome, "checked"):
            self.counts["consistency.pentagon.checked"] += outcome.checked

    def _post_consistency_heptagon(self, idx, state, outcome):
        if isinstance(outcome, (tuple, list)):
            self.counts["consistency.heptagon.checked"] += sum(r.checked for r in outcome)

    def _pre_intlin_snf(self, idx, args, kwargs):
        matrix = args[0] if args else kwargs["matrix"]
        rows = args[1] if len(args) > 1 else kwargs.get("rows")
        cols = args[2] if len(args) > 2 else kwargs.get("cols")
        rows = len(matrix) if rows is None else rows
        cols = (len(matrix[0]) if matrix else 0) if cols is None else cols
        cells = rows * cols
        self.counts["intlin.snf.cells"] += cells
        self.counts["intlin.snf.max_cells"] = max(self.counts["intlin.snf.max_cells"], cells)

    def _pre_groups_snf_cache(self, idx, args, kwargs):
        from gxbtc import groups
        return len(groups._SNF_CACHE)

    def _post_groups_snf_cache(self, idx, size_before, outcome):
        from gxbtc import groups
        if not isinstance(outcome, Exception):
            grew = len(groups._SNF_CACHE) > size_before
            self.counts["groups.snf_cache.misses" if grew else "groups.snf_cache.hits"] += 1

    def _post_equivalence_gauge_match(self, idx, state, outcome):
        if isinstance(outcome, Exception):
            if type(outcome).__name__ == "_NonRootRatio":
                self.counts["equivalence.gauge_match.undecided"] += 1
        elif outcome is None:
            self.counts["equivalence.gauge_match.refuted"] += 1
        else:
            self.counts["equivalence.gauge_match.solved"] += 1
        parent = self.parent_name(idx)
        if parent == "equivalence.search":
            self.counts["equivalence.search.gauge_attempts"] += 1
        elif parent == "cli.collapse":
            self.counts["cli.collapse.gauge_attempts"] += 1

    def _pre_equivalence_relabel(self, idx, args, kwargs):
        if self.parent_name(idx) == "equivalence.search":
            self.counts["equivalence.search.candidates"] += 1

    def _pre_equivalence_relabel_1cochain(self, idx, args, kwargs):
        if self.parent_name(idx) == "cli.collapse":
            self.counts["cli.collapse.cochains_tried"] += 1

    # -- results -------------------------------------------------------------

    def cut(self, keep):
        """Per-layer metrics of the spans since the last cut.

        With ``keep`` the spans stay for :meth:`kept_spans`; otherwise they
        are dropped, so long traced runs do not grow without bound.
        """
        lo = self.segment_start
        out = self._metrics(lo)
        if keep:
            self.segment_start = len(self.names)
        else:
            for column in (self.names, self.starts, self.ends, self.parents):
                del column[lo:]
        self.counts.clear()
        return out

    def _metrics(self, lo):
        n = len(self.names)
        child = [0.0] * (n - lo)
        for i in range(lo, n):
            parent = self.parents[i]
            if parent >= lo:
                child[parent - lo] += self.ends[i] - self.starts[i]
        selfs = defaultdict(float)
        calls = defaultdict(int)
        for i in range(lo, n):
            name = self.names[i]
            selfs[name] += (self.ends[i] - self.starts[i]) - child[i - lo]
            calls[name] += 1
        out = {}
        for metric, spans in SELF_TIMES.items():
            out[metric] = sum(selfs.get(s, 0.0) for s in spans)
        for metric, spans in CALLS.items():
            out[metric] = sum(calls.get(s, 0) for s in spans)
        for metric in COUNTS + [num for num, _ in RATIOS.values()]:
            out[metric] = self.counts.get(metric, 0)
        return out

    def kept_spans(self):
        """Kept spans as [name, start, end, parent index] lists."""
        end = self.segment_start
        return [[self.names[i], self.starts[i], self.ends[i], self.parents[i]]
                for i in range(end)]


def combine(setup, rounds):
    """Per-layer metrics of a traced run: set-up plus the median round.

    Counts repeat exactly between rounds, so the median round's counts are
    every round's counts; ratios are taken from the combined counts.
    """
    out = {}
    for name, value in setup.items():
        merge = max if name in MAXIMA else operator.add
        middle = statistics.median if isinstance(value, float) else statistics.median_low
        out[name] = merge(value, middle(r[name] for r in rounds))
    for metric, (num, den) in RATIOS.items():
        out[metric] = out[num] / out[den] if out[den] else 0.0
    return out
