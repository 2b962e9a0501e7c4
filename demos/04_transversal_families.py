"""The three transversal families and their closed forms vs the oracle.

A transversal surface keeps the base striction curve and tilts the ruling
into a frame plane.  Closed forms for its strictional distance and drall
are cross-checked against the generic formulas applied to the sampled
transversal parametrization; the commonly printed strictional-distance
forms for the beta and gamma families differ from the defining quotient
by an overall sign, which the analysis flags automatically.

Run:  python demos/04_transversal_families.py
"""

import math

import numpy as np

from minkruled import (
    Branch,
    Family,
    TransversalSpec,
    analyze,
    coincidence_condition,
    corollary_checks,
    developability_condition,
    from_constants,
    synthesize_surface,
)
from minkruled import expressions as ex

surf = synthesize_surface(from_constants(1.0, 0.0, 1.0, s_range=(0.0, 1.0), step=1e-3))

print("== beta family on the k1=1, k2=0, theta=1 surface, angle pi/4 ==")
spec = TransversalSpec(Family.BETA, ex.parse("pi/4"))
result = analyze(surf, spec)
print("ruling norm <q_T, q_T> =", result.ell)
print("v closed form:", result.v_closed[0], " (= -sqrt(2) cosh 1 =", -math.sqrt(2) * math.cosh(1), ")")
print("v printed form:", result.v_printed[0], " -> sign flip flagged:", result.printed_sign_flip)
print("v oracle:", result.oracle.v0[0])
print("d closed form:", result.d_closed[0], " (= -sinh 1)")
print("worst closed-vs-oracle gaps: v {:.2e}, d {:.2e}".format(result.rel_v, result.rel_d))

print("\n== coincidence: tuned alpha instance ==")
base = synthesize_surface(from_constants(1.0, 2.0, math.atanh(0.5), (0.0, 1.0), 1e-3))
tuned = TransversalSpec(Family.ALPHA, ex.parse("1"), Branch.TIMELIKE)
report = coincidence_condition(analyze(base, tuned))
print("condition residual:", report.residuals["condition"])
print("max |v| closed:", report.residuals["max_abs_v_closed"], " oracle:", report.residuals["max_abs_v_oracle"])
print("transversal striction curve coincides with the base one:", report.flags["coincides_oracle"])

print("\n== developability: the alpha stated condition vs the drall numerator ==")
theta = math.atanh(-math.sinh(1.0) ** 2 * 0.5)  # zeroes the drall numerator
base = synthesize_surface(from_constants(1.0, 0.5, theta, (0.0, 1.0), 1e-3))
spec = TransversalSpec(Family.ALPHA, ex.parse("1"), Branch.TIMELIKE)
report = developability_condition(analyze(base, spec))
for key in ("numerator", "stated_condition", "oracle_drall"):
    print(f"  max |{key}| = {report.residuals[key]:.3e}")
print("  notes:", report.notes)

print("\n== corollaries over a developable base (theta = 0) ==")
base = synthesize_surface(from_constants(1.0, 1.0, 0.0, (0.0, 1.0), 1e-3))
spec = TransversalSpec(Family.BETA, ex.parse("-0.2 - s"))  # angle' = -k2
report = corollary_checks(base, spec)
print("beta with angle' = -k2: developable =", report.flags["transversal_developable"])
spec = TransversalSpec(Family.GAMMA, ex.parse("1"), Branch.TIMELIKE)
report = corollary_checks(base, spec)
print(
    "gamma with mismatched ratio: developable =",
    report.flags["transversal_developable"],
    ", oracle |d| =",
    f"{report.residuals['oracle_drall']:.3f}",
)
