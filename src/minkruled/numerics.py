"""Small numerical kernels in numpy: stencils, quadrature, monotone interpolation.

The quadrature works on arrays: integrands take an array of points and
return an array of values, and ``adaptive_simpson`` integrates a whole
array of intervals with one integrand call per recursion level.
``pchip_interpolate`` is the Fritsch-Carlson monotone cubic that inverts
the arc length in ``uniform_arclength_nodes``.
"""

from __future__ import annotations

import numpy as np


def check_stencil_samples(n: int):
    """Raise ValueError unless ``n`` samples span the 4th-order stencils' five points."""
    if n < 5:
        raise ValueError("need at least 5 samples for the 4th-order stencil")


def central_diff1(y: np.ndarray, h: float):
    """Fourth-order first derivative on a uniform grid.

    Returns ``(dy, sl)`` where ``dy`` holds derivatives for the interior
    samples ``y[sl]`` with ``sl = slice(2, len(y) - 2)``.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    check_stencil_samples(n)
    sl = slice(2, n - 2)
    dy = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    return dy, sl


def central_diff2(y: np.ndarray, h: float):
    """Fourth-order second derivative on a uniform grid; interior as above."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    check_stencil_samples(n)
    sl = slice(2, n - 2)
    d2 = (
        -y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2] + 16.0 * y[3:-1] - y[4:]
    ) / (12.0 * h * h)
    return d2, sl


def adaptive_simpson(fn, a, b, tol: float = 1e-10, max_depth: int = 40):
    """Adaptive Simpson quadrature of ``fn`` on [a, b], batched over intervals.

    ``a`` and ``b`` are scalars or equal-shape arrays; ``fn`` maps an array
    of points to an array of values.  The classic recursion (stop when
    ``|delta| <= 15 eps`` or at ``max_depth``, halve ``eps`` per level, leaf
    value ``left + right + delta / 15``) runs breadth-first: each level makes
    one ``fn`` call on the midpoints of every pending half-interval, and the
    results are summed back up left child before right child, so every
    integral has the same bits as the depth-first recursion.  Scalar bounds
    return a float; ``a == b`` integrates to 0.  A non-finite integrand value,
    or a Simpson sum that overflows, raises ``ValueError``.
    """

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.zeros(a_arr.shape)
    live = a_arr != b_arr
    x0, x2 = a_arr[live], b_arr[live]
    if x0.size:
        xm = 0.5 * (x0 + x2)
        f0, f1, f2 = np.split(fn(np.concatenate([x0, xm, x2])), 3)
        whole = simpson(x0, x2, f0, f1, f2)
        eps = tol
        levels = []  # per depth: (values, split mask); children are [lefts, rights]
        for depth in range(max_depth + 1):
            x1 = 0.5 * (x0 + x2)
            lm = 0.5 * (x0 + x1)
            rm = 0.5 * (x1 + x2)
            flm, frm = np.split(fn(np.concatenate([lm, rm])), 2)
            left = simpson(x0, x1, f0, flm, f1)
            right = simpson(x1, x2, f1, frm, f2)
            delta = left + right - whole
            split = ~(np.abs(delta) <= 15.0 * eps) & (depth < max_depth)
            values = left + right + delta / 15.0
            if not np.isfinite(values).all():
                raise ValueError("integrand or Simpson sum is not finite")
            levels.append((values, split))
            if not split.any():
                break
            x0, x2 = np.concatenate([x0[split], x1[split]]), np.concatenate([x1[split], x2[split]])
            f0, f2 = np.concatenate([f0[split], f1[split]]), np.concatenate([f1[split], f2[split]])
            f1 = np.concatenate([flm[split], frm[split]])
            whole = np.concatenate([left[split], right[split]])
            eps = 0.5 * eps
        below = None
        for values, split in reversed(levels):
            if below is not None:
                half = below.size // 2
                values[split] = below[:half] + below[half:]
            below = values
        out[live] = below
    return float(out) if out.ndim == 0 else out


def pchip_interpolate(x, y, s):
    """Monotone piecewise cubic Hermite interpolant of (x, y), evaluated at s.

    Fritsch & Carlson (SIAM J. Numer. Anal. 17(2), 1980), computed operation
    for operation as SciPy's ``PchipInterpolator`` does, so the values have
    the same bits: interior node slopes are the weighted harmonic mean of the
    two secants (weights ``2h[k] + h[k-1]`` and ``h[k] + 2h[k-1]``), or 0
    where the secants change sign or vanish; end slopes are the one-sided
    three-point estimate, clamped to keep the data's shape; two nodes give the
    line.  Each interval ``[x[i], x[i+1])`` holds ``y[i] + d0 z + c1 z**2 +
    c0 z**3`` with ``z = s - x[i]``; points outside ``x`` extrapolate from
    the end intervals.  ``x`` must be strictly increasing; non-finite data
    raise ``ValueError``.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("interpolation data must be finite")
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h

    def edge(h0, h1, m0, m1):
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    if x.size == 2:
        d = np.array([m[0], m[0]])
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.zeros_like(y)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0], d[-1] = edge(h[0], h[1], m[0], m[1]), edge(h[-1], h[-2], m[-1], m[-2])
    if not np.isfinite(d).all():
        raise ValueError("interpolation slopes must be finite")
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1 = t / h, (m - d[:-1]) / h - t
    i = np.clip(np.searchsorted(x, s, "right") - 1, 0, x.size - 2)
    z = np.asarray(s, dtype=float) - x[i]
    z2 = z * z
    # the power-sum order of SciPy's PPoly evaluation
    return 0.0 + y[:-1][i] + d[:-1][i] * z + c1[i] * z2 + c0[i] * (z2 * z)


def uniform_arclength_nodes(speed_fn, u0: float, u1: float, n: int, quad_tol: float = 1e-10):
    """Place ``n`` parameter values equally spaced in arc length.

    ``speed_fn`` maps an array of u to ds/du > 0.  Integrates every dense
    segment in one batched adaptive Simpson call, inverts with the monotone
    cubic ``pchip_interpolate``, and polishes all interior nodes at once
    with two Newton steps (ds/du is exact).  Returns ``(u_nodes, s_nodes)`` with
    ``s_nodes`` uniform from 0 to the total arc length.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    dense = max(801, 4 * n + 1)
    u_dense = np.linspace(u0, u1, dense)
    seg = np.empty(dense)
    seg[0] = 0.0
    seg[1:] = adaptive_simpson(speed_fn, u_dense[:-1], u_dense[1:], quad_tol)
    s_dense = np.cumsum(seg)
    if np.any(np.diff(s_dense) <= 0.0):
        raise ValueError("arc length is not strictly increasing on the range")
    s_nodes = np.linspace(0.0, s_dense[-1], n)
    u_nodes = pchip_interpolate(s_dense, u_dense, s_nodes)
    u_nodes[0], u_nodes[-1] = u0, u1
    # Newton on the interior nodes; s(u) from the nearest dense node keeps
    # each correction local
    u = u_nodes[1:-1]
    j = np.clip(np.searchsorted(u_dense, u) - 1, 0, dense - 2)
    for _ in range(2):
        s_here = s_dense[j] + adaptive_simpson(speed_fn, u_dense[j], u, quad_tol)
        u = u - (s_here - s_nodes[1:-1]) / speed_fn(u)
    u_nodes[1:-1] = u
    return u_nodes, s_nodes
