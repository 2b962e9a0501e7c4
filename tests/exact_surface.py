"""Exact timelike ruled surface with constant (k1, k2, theta) and epsilon = -1.

From the canonical frame (q0, h0, a0) the frame equations give
h'' = sigma h with sigma = k1^2 - k2^2.  With omega = sqrt|sigma|,
g = k1 q0 + k2 a0 and

    sigma > 0:  C = cosh(omega s),  S = sinh(omega s) / omega
    sigma < 0:  C = cos(omega s),   S = sin(omega s) / omega

the solution with c(0) = 0 is

    h = h0 C + g S
    Ih = h0 S + g (C - 1) / sigma            (the integral of h)
    IIh = h0 (C - 1) / sigma + g (S - s) / sigma
    q = q0 + k1 Ih,   a = a0 - k2 Ih
    c = (cosh(theta) q0 + sinh(theta) a0) s + (k1 cosh(theta) - k2 sinh(theta)) IIh

and at sigma = 0, h = h0 + g s, Ih = h0 s + g s^2/2 and
IIh = h0 s^2/2 + g s^3/6.  Each vector comes back as a triple of expression
strings in the library's grammar, so one closed form checks both the RK4
synthesis (evaluated) and the explicit pipeline (parsed as an
``ExplicitSurface``).  Terms are merged per basis function to keep the
symbolic derivatives of the explicit pipeline small.
"""

import math

import numpy as np

Q0, H0, A0 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, -1.0])


def _sum(*terms):
    """Merge ``(coefficient vector, {basis: weight})`` terms into {basis: vector}."""
    out = {}
    for vec, weights in terms:
        for basis, w in weights.items():
            out[basis] = out.get(basis, 0.0) + w * vec
    return out


def _scaled(x, combo):
    """The terms of ``x`` times a {basis: vector} map, for ``_sum``."""
    return [(x * v, {b: 1.0}) for b, v in combo.items()]


def _triple(combo):
    """Expression strings of sum(vector * basis) over a {basis: vector} map."""
    return tuple(
        " + ".join(
            repr(float(v[i])) if b == "1" else f"{float(v[i])!r}*{b}"
            for b, v in combo.items()
            if v[i] != 0.0
        )
        or "0"
        for i in range(3)
    )


def exact_surface(k1: float, k2: float, theta: float) -> dict:
    """Expression triples ``{"c", "q", "h", "a"}`` of the exact surface."""
    sigma = k1 * k1 - k2 * k2
    g = k1 * Q0 + k2 * A0
    if sigma == 0.0:
        h = _sum((H0, {"1": 1.0}), (g, {"s": 1.0}))
        ih = _sum((H0, {"s": 1.0}), (g, {"s^2": 0.5}))
        iih = _sum((H0, {"s^2": 0.5}), (g, {"s^3": 1.0 / 6.0}))
    else:
        w = math.sqrt(abs(sigma))
        cf, sf = ("cosh", "sinh") if sigma > 0.0 else ("cos", "sin")
        big_c, sin_w = f"{cf}({w!r}*s)", f"{sf}({w!r}*s)"  # S = sin_w / omega
        h = _sum((H0, {big_c: 1.0}), (g, {sin_w: 1.0 / w}))
        ih = _sum((H0, {sin_w: 1.0 / w}), (g, {big_c: 1.0 / sigma, "1": -1.0 / sigma}))
        iih = _sum(
            (H0, {big_c: 1.0 / sigma, "1": -1.0 / sigma}),
            (g, {sin_w: 1.0 / (sigma * w), "s": -1.0 / sigma}),
        )
    m = k1 * math.cosh(theta) - k2 * math.sinh(theta)
    tangent0 = math.cosh(theta) * Q0 + math.sinh(theta) * A0
    return {
        "c": _triple(_sum((tangent0, {"s": 1.0}), *_scaled(m, iih))),
        "q": _triple(_sum((Q0, {"1": 1.0}), *_scaled(k1, ih))),
        "h": _triple(h),
        "a": _triple(_sum((A0, {"1": 1.0}), *_scaled(-k2, ih))),
    }


def analyze_config(k1: float, k2: float, theta: float) -> dict:
    """An ``analyze`` config for the exact surface: base curve c, ruling q on [0, 1]."""
    surface = exact_surface(k1, k2, theta)
    return {
        "mode": "explicit",
        "f": list(surface["c"]),
        "q": list(surface["q"]),
        "u_range": [0.0, 1.0],
        "samples": 21,
        "output": {"report_path": "exact_report.json"},
    }
