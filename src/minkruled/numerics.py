"""Small numerical kernels in numpy: stencils, quadrature, arc-length nodes.

The quadrature works on arrays: integrands take an array of points and
return an array of values, and ``adaptive_simpson`` integrates a whole
array of intervals with one integrand call per recursion level.
``uniform_arclength_nodes`` inverts the arc length with that quadrature,
a linear start and Newton steps.
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


def uniform_arclength_nodes(speed_fn, u0: float, u1: float, n: int):
    """Place ``n`` parameter values equally spaced in arc length.

    ``speed_fn`` maps an array of u to ds/du > 0.  Integrates every dense
    segment in one batched adaptive Simpson call, starts each node from the
    piecewise-linear inverse of that table (``np.interp``), and polishes all
    interior nodes at once with two Newton steps (ds/du is exact).  Returns
    ``(u_nodes, s_nodes)`` with ``s_nodes`` uniform from 0 to the total arc
    length.  ValueError where the arc length is not finite or not strictly
    increasing.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    dense = max(801, 4 * n + 1)
    u_dense = np.linspace(u0, u1, dense)
    seg = np.empty(dense)
    seg[0] = 0.0
    seg[1:] = adaptive_simpson(speed_fn, u_dense[:-1], u_dense[1:])
    s_dense = np.cumsum(seg)
    # the segments are finite, so only their running sum can overflow
    if not (np.isfinite(s_dense[-1]) and np.all(np.diff(s_dense) > 0.0)):
        raise ValueError("arc length is not finite and strictly increasing on the range")
    s_nodes = np.linspace(0.0, s_dense[-1], n)
    u_nodes = np.interp(s_nodes, s_dense, u_dense)
    u_nodes[0], u_nodes[-1] = u0, u1
    # Newton on the interior nodes; s(u) from the nearest dense node keeps
    # each correction local
    u = u_nodes[1:-1]
    j = np.clip(np.searchsorted(u_dense, u) - 1, 0, dense - 2)
    for _ in range(2):
        s_here = s_dense[j] + adaptive_simpson(speed_fn, u_dense[j], u)
        u = u - (s_here - s_nodes[1:-1]) / speed_fn(u)
    u_nodes[1:-1] = u
    return u_nodes, s_nodes
