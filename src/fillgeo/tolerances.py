"""Every numerical tolerance of the package, one named constant per role.

A comparison keeps its own rule where it is made (absolute, relative,
or the larger of both), and the reports print the value used; this
module holds each value and its reason.  No other module writes a float
literal in exponent form, and a test keeps it that way.
"""

# polygeom: acosh arguments this far below 1 are rounding noise and
# clamp to 1; anything lower is a real domain violation
ACOSH_CLAMP = 1e-12
# polygeom.circumradius: cot(pi/n)*cot(theta/2) rounds to within an ulp
# of 1 at the degenerate polygon, so values this close to 1 give R = 0
CIRCUMRADIUS_SNAP = 1e-12
# isoperim.classify_equality: a polygon is degenerate when its area and
# its perimeter are below this
DEGENERATE_TOL = 1e-9

# isoperim: slack for the inequality lhs <= rhs, the equality flag and
# the nonnegativity of f
INEQ_TOL = 1e-9
# isoperim: slack for angle lower bounds (right angles up to rounding)
ANGLE_TOL = 1e-12
# verify_lemma_3_3 compares a sample with the closed-form sign criterion
# only when both are clear of zero by these; nearer, rounding decides
SIGN_CRITERION_TOL = 1e-12
SECOND_DERIVATIVE_TOL = 1e-15
# verify_lemma_3_2: the written constant 1.29521 has five decimals
LEMMA_3_2_CONSTANT_TOL = 5e-6
# verify_prop_3_6: x stops this fraction short of 2*pi, the supremum of
# the areas P_4 accepts
X_CAP_MARGIN = 1e-12
# verify_merge_properties: last merge area against the target's,
# relative to max(1, target area)
MERGE_AREA_TOL = 1e-12

# surfmap.canonical_report: relative error of the canonical strand length
LENGTH_REL_TOL = 1e-12
# surfmap.gluing_svg: corners this close to the origin draw as one point
SVG_POINT_TOL = 1e-12
# surfmap.gluing_svg: a side's polyline may leave its true arc by 1/20 px
# of the 720 px picture (the viewBox is 2.5 units wide), so it takes 24
# points a side at g = 2 and the bare chord from g = 2000 on
SVG_SAG_TOL = 2.5 / 720 / 20
