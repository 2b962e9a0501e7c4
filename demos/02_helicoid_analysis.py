"""Analyze an explicit timelike ruled surface (a Lorentzian helicoid).

The surface r(u, v) = (0, 0, u) + v (cosh u, sinh u, 0) has a unit
timelike ruling; its striction curve is the axis and the drall is
identically 1 (a skew surface).

Run:  python demos/02_helicoid_analysis.py
"""

import numpy as np

from minkruled import (
    ExplicitSurface,
    asymptotic_normal,
    classify,
    distribution_parameter,
    frenet_frame_at,
    striction,
    surface_point,
    unit_normal,
)
from minkruled.ruled import normal_limit_agreement

helicoid = ExplicitSurface.from_strings(
    f=("0", "0", "s"), q=("cosh(s)", "sinh(s)", "0"), u_range=(0.0, 1.0)
)

print("== pointwise invariants ==")
print("r(0, 2) =", surface_point(helicoid, 0.0, 2.0))
for u in (0.0, 0.5, 1.0):
    v0, point = striction(helicoid, u)
    print(
        f"u = {u}: drall = {distribution_parameter(helicoid, u):+.6f}, "
        f"strictional distance = {v0:+.3f}, striction point = {np.round(point, 6)}"
    )

print("\n== normals ==")
print("unit normal at (0, 0):", unit_normal(helicoid, 0.0, 0.0))
print("asymptotic normal at u = 0:", asymptotic_normal(helicoid, 0.0))
limit = normal_limit_agreement(helicoid, 0.3)
print(
    "normal limit match: +v deviation {:.2e}, -v deviation {:.2e}, matching sign {}".format(
        limit["+v"], limit["-v"], limit["matching_sign"]
    )
)

print("\n== moving frame along the striction curve ==")
sample = frenet_frame_at(helicoid, 0.5)
print("k1 =", round(sample.k1, 12), ", k2 =", round(sample.k2, 12))
print("theta =", sample.theta, " (nan: the striction tangent is spacelike here)")

print("\n== classification ==")
cls = classify(helicoid, samples=101)
print(
    f"ruling: {cls.ruling_character.value}; developable: {cls.developable}; "
    f"conoid: {cls.conoid}; cylindrical: {cls.cylindrical}; max |drall| = {cls.max_abs_drall:.6f}"
)
