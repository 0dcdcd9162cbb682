"""Composition of two twist functors into one, up to an explicit gauge.

Applying two twists in sequence equals applying their pointwise product
with corrected phase coefficients, conjugated by a computable gauge.  The
correction and gauge are closed-form contractions of base-theory symbols
on the twist lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .category import monodromy
from .equivalence import GaugeTransform
from .errors import InvalidInput, NotAbelianMonodromy
from .groups import Cochain
from .torsor import (
    TorsorInput,
    Twist,
    root_module,
    validate_two_cocycle,
)


def _twist_product(theory, t1, t2):
    module = t1.module
    return Cochain.from_function(
        theory.group, 2, module,
        lambda g, h: theory.translate(t1(g, h), t2(g, h)))


def correction_coefficients(theory, t1, t2, root_order=None):
    """Phase correction for composing the ``t1`` twist followed by ``t2``.

    Multiplies the naive product of the two coefficient cochains in the
    composite functor.
    """
    module = root_module(theory, root_order)
    grp = theory.group
    act = theory.act
    tr = theory.translate
    f3, r2, u2 = theory.f_line, theory.r_line, theory.u_line

    def value(g, h, k):
        gh = grp.op(g, h)
        hk = grp.op(h, k)
        t2_hk_g = act(g, t2(h, k))
        t1_hk_g = act(g, t1(h, k))
        val = 1.0 / u2(g, t2_hk_g, t1_hk_g)
        # the phantom reordering braids clockwise: inverse braid symbols
        val = val * (r2(t2(g, h), t1(gh, k))
                     / r2(t2_hk_g, t1(g, hk))).conjugate()
        num1 = f3(t2(gh, k), t1(gh, k), t2(g, h))
        den1 = f3(tr(t2(gh, k), t1(gh, k)), t2(g, h), t1(g, h))
        num2 = (f3(tr(t2(g, h), t2(gh, k)), t1(gh, k), t1(g, h))
                * f3(t2(g, hk), t2_hk_g, t1(g, hk))
                * f3(tr(t2(g, hk), t1(g, hk)), t2_hk_g, t1_hk_g))
        den2 = (f3(t2(gh, k), t2(g, h), t1(gh, k))
                * f3(tr(t2(g, h), t2(gh, k)), t1(g, hk), t1_hk_g)
                * f3(t2(g, hk), t1(g, hk), t2_hk_g))
        return val * (num1 / den1) * (num2 / den2)

    entries = {}
    for args in itertools.product(grp.elements(), repeat=3):
        entries[args] = value(*args)
    return Cochain(grp, 3, module, entries)


def composition_gauge(first, second, composite):
    """Gauge conjugating the single composite twist into the sequence.

    ``first`` and ``second`` are the twists applied in order; ``composite``
    is the twist by their pointwise product.
    """
    theory = first.theory
    grp = theory.group
    tr = theory.translate
    dual = theory.dual
    f3 = theory.f_line
    t1, t2, t = first.t, second.t, composite.t
    q, q1, q2 = composite.transfer, first.transfer, second.transfer
    vertex = {}
    for a, b, e in composite.fusion[0]:
        g, h = theory.grade(a), theory.grade(b)
        shifted = tr(dual(t(g, h)), e)
        ee = tr(t2(g, h), tr(t1(g, h), shifted))
        val = f3(t2(g, h), t1(g, h), shifted, d=ee)
        vertex[(a, b, e)] = val.conjugate()
    sheet = {}
    for a in theory.charges():
        g = theory.grade(a)
        for h in grp.elements():
            hgh = grp.prod(grp.inverse(h), g, h)
            # same clockwise phantom braid chirality as in the correction
            val = 1.0 / theory.r_line(q2[(g, h)], t1(g, h)).conjugate()
            num = (f3(t2(g, h), q2[(g, h)], t1(g, h))
                   * f3(t(g, h), q2[(g, h)], q1[(g, h)]))
            den = (f3(t2(h, hgh), t1(g, h), q1[(g, h)])
                   * f3(t2(g, h), t1(g, h), q2[(g, h)]))
            shifted = tr(dual(q[(g, h)]), a)
            e_lab = tr(q2[(g, h)], q1[(g, h)])
            f_lab = tr(q1[(g, h)], shifted)
            last = theory.f_symbol(q2[(g, h)], q1[(g, h)], shifted, a,
                                   e_lab, f_lab)
            sheet[(a, h)] = val * (num / den) * last
    return GaugeTransform(vertex, sheet)


def compose_torsors(theory, first, second, root_order=None):
    """Composite input and gauge for two twist functors applied in order.

    ``first`` is applied to ``theory``; ``second`` to the result.  The
    second twist acts on the intermediate theory, but its cocycle condition
    only sees the action restricted to the abelian identity sector, which
    twisting never changes; checking against the base action is therefore
    exact, not an approximation.  The restriction is asserted anyway.
    """
    one, two = Twist(theory, first.t), Twist(theory, second.t)
    mid_action = one.action
    for a in second.t.module.charges:
        for g in theory.group.elements():
            if mid_action[g][a] != theory.act(g, a):
                raise InvalidInput(
                    "intermediate action moved an abelian identity-sector "
                    "charge; the composite twist is ill-defined")
    both = Twist(theory, _twist_product(theory, first.t, second.t))
    correction = correction_coefficients(theory, first.t, second.t, root_order)
    x = first.x.combine(second.x).combine(correction)
    gauge = composition_gauge(one, two, both)
    return TorsorInput(both.t, x), gauge


@dataclass
class CommutatorResult:
    """Reordering class of two twists plus its explicit coboundary witness."""

    cochain: Cochain
    witness: Cochain
    residual: float


def commutator_class(theory, t1, t2, root_order=None):
    """Monodromy 3-cocycle comparing the two orders of twist application.

    Verifies that swapping the order shifts the correction coefficients by
    this cocycle times the coboundary of the pairwise-monodromy 1-witness.
    """
    validate_two_cocycle(theory, t1)
    validate_two_cocycle(theory, t2)
    grp = theory.group
    module = root_module(theory, root_order)

    def mono(a, b):
        try:
            return monodromy(theory, a, b)
        except NotAbelianMonodromy as exc:
            raise NotAbelianMonodromy(
                f"twist lines ({a},{b}) have no abelian monodromy") from exc

    def value(g, h, k):
        gh = grp.op(g, h)
        hk = grp.op(h, k)
        return (mono(t1(g, h), t2(gh, k))
                / mono(theory.act(g, t1(h, k)), t2(g, hk)))

    entries = {}
    for args in itertools.product(grp.elements(), repeat=3):
        entries[args] = value(*args)
    cochain = Cochain(grp, 3, module, entries)
    xi = Cochain.from_function(
        grp, 2, module, lambda g, h: mono(t1(g, h), t2(g, h)))
    y12 = correction_coefficients(theory, t1, t2, module.order)
    y21 = correction_coefficients(theory, t2, t1, module.order)
    shifted = cochain.combine(xi.coboundary()).combine(y12)
    residual = max((abs(y21(*args) - shifted(*args)) for args in shifted.support()),
                   default=0.0)
    return CommutatorResult(cochain, xi, residual)
