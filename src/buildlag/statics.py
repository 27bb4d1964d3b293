"""Comparative statics of the boundary: closed-form elasticities for the
geometric model, level partials for the arithmetic model, the square-root
model's tangent/asymptote/kink, and a finite-difference harness to check
any of them.  One table per model (`sensitivity_table`) is both reported
and checked against the live boundary code (`sensitivity_checks`).

Conventions: an elasticity is (x / Q) dQ/dx at the given point.  The lone
exception is the pair ("c_hat", "q0"), reported as the level derivative
d c_hat / d q0 = -rho e^(rho h): it is the same at every demand level and
every q0, so the elasticity form would just obscure it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .boundary import Boundary, cir_asymptote, cir_kink, cir_tangent, gbm_constants
from .demand import ABM, CIR, GBM, validate
from .errors import NumericsError, ParameterError, StepError, require_nonnegative

__all__ = [
    "Elasticity",
    "gbm_elasticity",
    "gbm_statics_table",
    "ABMPartials",
    "abm_partials",
    "FDReport",
    "finite_diff_check",
    "sensitivity_table",
    "sensitivity_checks",
]

_QUANTITIES = ("A", "b_sigma", "c_hat")
_PARAMS = ("h", "sigma", "mu", "rho", "q0")


@dataclass(frozen=True)
class Elasticity:
    quantity: str
    wrt: str
    value: float


def gbm_elasticity(
    quantity: str, wrt: str, mu: float, sigma: float, rho: float, h: float
) -> Elasticity:
    """Closed-form sensitivity of the geometric-model boundary pieces.

    quantity is "A" (slope of the boundary), "b_sigma" (precautionary
    markdown per unit of demand), or "c_hat" (only with wrt="q0").  Raises
    ParameterError outside rho > 2 mu + sigma^2 and ValueError for an
    unsupported pair.
    """
    if quantity not in _QUANTITIES or wrt not in _PARAMS:
        raise ValueError(
            f"unknown pair ({quantity!r}, {wrt!r}); quantities {_QUANTITIES}, "
            f"parameters {_PARAMS}"
        )
    validate(GBM(mu, sigma), rho)
    require_nonnegative(h=h)
    s2 = sigma * sigma
    half = mu - 0.5 * s2
    S = math.sqrt(half * half + 2.0 * rho * s2)
    pair = (quantity, wrt)
    if pair == ("A", "h") or pair == ("b_sigma", "h"):
        # both carry the lag only through the common factor e^(mu h)
        value = mu * h
    elif pair == ("A", "sigma"):
        value = -s2 / S
    elif pair == ("A", "mu"):
        value = mu * h + 0.5 * mu / (rho - mu) * (1.0 - (mu + 0.5 * s2) / S)
    elif pair == ("A", "rho"):
        value = (
            0.5
            * (rho * s2 + mu * mu - 0.5 * mu * s2 - mu * S)
            / ((rho - mu) * S)
        )
    elif pair == ("b_sigma", "sigma"):
        value = s2 * (2.0 * rho - mu + 0.5 * s2 - S) / (S * (S - mu - 0.5 * s2))
    elif pair == ("b_sigma", "mu"):
        value = mu * (h - 0.5 / (rho - mu) * (2.0 * rho - mu + 0.5 * s2 - S) / S)
    elif pair == ("b_sigma", "rho"):
        value = 0.5 * (rho / (rho - mu)) * (mu + 0.5 * s2 - S) / S
    elif pair == ("c_hat", "q0"):
        value = -rho * math.exp(rho * h)
    else:
        raise ValueError(f"no closed form for ({quantity!r}, {wrt!r})")
    return Elasticity(quantity, wrt, float(value))


# expected sign of each entry: +1, -1, "mu" (sign of the drift), or None
# when the sign genuinely depends on the other parameters
_GBM_SIGNS = {
    ("A", "h"): "mu",
    ("A", "sigma"): -1,
    ("A", "mu"): "mu",
    ("A", "rho"): +1,
    ("b_sigma", "h"): "mu",
    ("b_sigma", "sigma"): +1,
    ("b_sigma", "mu"): None,
    ("b_sigma", "rho"): -1,
    ("c_hat", "q0"): -1,
}


def gbm_statics_table(mu: float, sigma: float, rho: float, h: float):
    """All supported entries with their sign verdicts, for reporting.

    Returns a list of (Elasticity, verdict) where verdict is "ok" when the
    computed sign matches the theoretical one, "ambiguous" for the entry
    whose sign legitimately depends on the point, and "violated" otherwise.
    """
    rows = []
    for (quantity, wrt), sign in _GBM_SIGNS.items():
        e = gbm_elasticity(quantity, wrt, mu, sigma, rho, h)
        if sign is None:
            verdict = "ambiguous"
        else:
            want = math.copysign(1.0, mu) if sign == "mu" else float(sign)
            ok = e.value == 0.0 if mu == 0.0 and sign == "mu" else e.value * want > 0.0
            verdict = "ok" if ok else "violated"
        rows.append((e, verdict))
    return rows


@dataclass(frozen=True)
class ABMPartials:
    """Level derivatives of the arithmetic-model boundary; none depends on
    d, so they describe the whole boundary at once.  cross_h_sigma is the
    mixed second derivative, identically zero: the lag enters through the
    forecast term and the volatility through the markdown, additively."""

    d_mu: float
    d_sigma: float
    d_h: float
    d_rho: float
    cross_h_sigma: float


def abm_partials(mu: float, sigma: float, rho: float, h: float, q0: float) -> ABMPartials:
    validate(ABM(mu, sigma), rho)
    require_nonnegative(h=h, q0=q0)
    root = math.sqrt(mu * mu + 2.0 * rho * sigma * sigma)
    erh = math.exp(rho * h)
    return ABMPartials(
        d_mu=h + 0.5 / rho * (1.0 - mu / root),
        d_sigma=-sigma / root,
        d_h=mu - q0 * rho * rho * erh,
        d_rho=-q0 * (1.0 + rho * h) * erh
        + (mu * mu + rho * sigma * sigma - mu * root) / (2.0 * rho * rho * root),
        cross_h_sigma=0.0,
    )


@dataclass(frozen=True)
class FDReport:
    analytic: float
    finite_diff: float
    abs_err: float
    tol: float
    passed: bool


def finite_diff_check(f, x0: float, analytic: float, rel_step: float = 1e-5) -> FDReport:
    """Central-difference check of an analytic derivative.

    f is the quantity as a function of the single parameter being varied.
    If either perturbed point violates a model constraint (f raises
    ParameterError), the check cannot be run there and StepError is raised
    instead of silently shrinking the step.  NumericsError is raised where
    the difference cannot resolve the derivative: f at a perturbed point
    or the analytic value is not finite, or the difference's rounding
    bound, eps max(|f(x0 - step)|, |f(x0 + step)|) / step, exceeds the
    tolerance.
    """
    if not rel_step > 0.0:
        raise ParameterError(f"need rel_step > 0, got {rel_step}")
    step = rel_step * (abs(x0) if x0 != 0.0 else 1.0)
    try:
        hi = f(x0 + step)
        lo = f(x0 - step)
    except ParameterError as exc:
        raise StepError(
            f"perturbed point of x0={x0} (step {step}) is inadmissible: {exc}"
        ) from exc
    tol = max(1e-6, 1e-4 * abs(analytic))
    if not all(map(math.isfinite, (hi, lo, analytic))):
        raise NumericsError(f"difference at x0={x0} (step {step}) is not finite: "
                            f"f = {lo}, {hi}, analytic {analytic}")
    rounding = sys.float_info.epsilon * max(abs(lo), abs(hi)) / step
    if rounding > tol:
        raise NumericsError(f"difference at x0={x0} (step {step}) cannot resolve the "
                            f"derivative: rounding bound {rounding:.3g} > tolerance {tol:.3g}")
    fd = (hi - lo) / (2.0 * step)
    err = abs(analytic - fd)
    return FDReport(float(analytic), float(fd), float(err), float(tol), bool(err <= tol))


def sensitivity_table(sc) -> list[tuple]:
    """Rows (quantity, wrt, value, kind, verdict) for the scenario's model.

    kind is "elasticity", "partial", "cross-partial" or, for the
    square-root model, "geometry" (slope and intercept of the tangent at
    the origin and of the asymptote, and the kink where they meet).
    """
    model = sc.model
    if isinstance(model, GBM):
        return [
            (e.quantity, e.wrt, e.value, "partial" if e.wrt == "q0" else "elasticity", verdict)
            for e, verdict in gbm_statics_table(model.mu, model.sigma, sc.rho, sc.h)
        ]
    if isinstance(model, ABM):
        p = abm_partials(model.mu, model.sigma, sc.rho, sc.h, sc.q0)
        return [
            ("c_hat", "mu", p.d_mu, "partial", "ok" if p.d_mu > 0 else "violated"),
            ("c_hat", "sigma", p.d_sigma, "partial", "ok" if p.d_sigma < 0 else "violated"),
            ("c_hat", "h", p.d_h, "partial", "ambiguous"),
            ("c_hat", "rho", p.d_rho, "partial", "ambiguous"),
            ("c_hat", "h*sigma", p.cross_h_sigma, "cross-partial",
             "ok" if p.cross_h_sigma == 0.0 else "violated"),
        ]
    tangent, asymptote, (kd, kc) = _cir_geometry(sc)
    one, zero = np.asarray(1.0), np.asarray(0.0)
    rows = []
    for name, line in (("tangent", tangent), ("asymptote", asymptote)):
        rows.append((name, "slope", float(line(one) - line(zero)), "geometry", "n/a"))
        rows.append((name, "intercept", float(line(zero)), "geometry", "n/a"))
    return rows + [("kink", "d", kd, "geometry", "n/a"), ("kink", "c_hat", kc, "geometry", "n/a")]


def sensitivity_checks(sc) -> list[tuple[str, bool, float]]:
    """Entries (name, passed, abs_err) checking `sensitivity_table`.

    Each elasticity and partial of the geometric and arithmetic models is
    compared with a central difference of the quantity the boundary code
    computes, named "quantity/wrt" after its row; NumericsError naming the
    entry where the difference cannot resolve the derivative
    (finite_diff_check).  The arithmetic model's "c_hat/h*sigma" differences
    the closed-form d c_hat / d sigma in h, which contains no h: the entry
    restates the paper's additive split and cannot fail.  For the square-root
    model the boundary must meet its tangent near the origin and its
    asymptote far out, and the kink must lie on both lines.
    """
    model = sc.model
    if isinstance(model, CIR):
        tangent, asymptote, (kd, kc) = _cir_geometry(sc)
        bound = Boundary(model, sc.rho, sc.h, sc.q0)
        g, s2, dl = model.gamma, model.sigma**2, model.delta
        a, b, pref = sc.rho / g, 2.0 * g * dl / s2, 0.5 * s2 * math.exp(-g * sc.h) / (sc.rho + g)
        # A line leaves the boundary by pref times the next term of psi''/psi'
        # about z = 2 gamma d / sigma^2 = 0 or infinity.  Allow twice that plus
        # rounding: z eps of the boundary's parts (Kummer ratio), eps delta.
        entries = []
        for name, line, x, z, term in (
                ("tangent-at-origin", tangent, 1e-4 * dl, 1e-4 * b,
                 pref * (a + 1.0) * (b - a) * (1e-4 * b / (b + 1.0))**2 / (b + 2.0)),
                ("asymptote-at-infinity", asymptote, 1e3 * dl, 1e3 * b,
                 pref * a * (b - a) / (1e3 * b))):
            parts = bound.decompose(x)
            gap = abs(parts.total - float(line(x)))
            scale = max(1.0, parts.beta0 + parts.discounting_bias + parts.precautionary_bias)
            entries.append((name, gap <= 2.0 * abs(term) + 1e-14 * ((1.0 + z) * scale + dl), gap))
        cross = abs(float(tangent(kd) - asymptote(kd)))
        return entries + [("kink-on-both-lines", cross <= 1e-9 * max(1.0, abs(kc)), cross)]
    params = dict(mu=model.mu, sigma=model.sigma, rho=sc.rho, h=sc.h, q0=sc.q0)
    entries = []
    for quantity, wrt, value, kind, _ in sensitivity_table(sc):
        if kind == "cross-partial":
            # differences the closed-form d c_hat / d sigma in h
            x0, rel_step = sc.h, 1e-6
            f = lambda x: abm_partials(**(params | {"h": x})).d_sigma
        else:
            x0, rel_step = params[wrt], (1e-6 if isinstance(model, GBM) else 1e-7)
            f = lambda x: _quantity(sc, quantity, **(params | {wrt: x}))
        deriv = value * f(x0) / x0 if kind == "elasticity" else value
        try:
            rep = finite_diff_check(f, x0, deriv, rel_step=rel_step)
        except NumericsError as exc:
            raise NumericsError(f"sensitivity {quantity}/{wrt}: {exc}") from exc
        entries.append((f"{quantity}/{wrt}", rep.passed, rep.abs_err))
    return entries


def _quantity(sc, quantity, mu, sigma, rho, h, q0) -> float:
    """A, b_sigma(d) or c_hat(d) at the scenario's demand level d, for the
    scenario's model type at the given parameters."""
    if quantity == "A":
        return gbm_constants(mu, sigma, rho, h)[1]
    bound = Boundary(type(sc.model)(mu, sigma), rho, h, q0)
    if quantity == "b_sigma":
        return bound.decompose(sc.d).precautionary_bias
    return float(bound.eval(np.asarray(sc.d)))


def _cir_geometry(sc):
    """The square-root boundary's tangent at the origin and asymptote, as
    functions of d, and the kink (d, c_hat) where they meet."""
    args = (sc.model, sc.rho, sc.h, sc.q0)
    tangent = functools.partial(cir_tangent, *args)
    return tangent, functools.partial(cir_asymptote, *args), cir_kink(*args)
