"""Isoperimetric inequality for unions of regular hyperbolic polygons.

The central inequality: a family of regular polygons D_1..D_k with
m_i sides and given areas, subject to the side-count balance
m - 4 = sum(m_i) - 4k and total area equal to the area of a target
regular m-gon D with interior angle >= pi/2, always has total
perimeter at least perim(D), with equality only when the family is
D itself plus degenerate members.

This module provides the pieces: the split-cost function f and its
x-derivative, sweep verifiers for the supporting monotonicity and
concavity facts, instances checked when they are made, the merge
sequence that proves the inequality by absorbing polygons one at a
time, and the classifier for the equality case.

All verifiers return CheckReport records.  Most gather floating-point
evidence on grids; lemma 3.3 also computes its sign change in closed
form and checks its samples against it.  A draw makes tens of
thousands of instances, each checked once, when it is made.
"""

import math
import random
from collections import namedtuple
from operator import itemgetter

from . import tolerances as tol
from .errors import DomainError, ValidationError
from .polygeom import (
    RegularPolygonSpec,
    _angle_from_area,
    _area_from_angle,
    _check_area,
    _check_sides,
    _max_angle,
    _max_area,
    _perimeter_derivatives,
    _perimeter_from_angle,
    _perimeter_from_area,
    _perimeter_second_derivatives,
    _perimeters_from_area,
    perimeter_from_area,
)
from .report import CheckReport


def f(n, a: float, x: float) -> float:
    """P_4(x) + P_n(a - x) - P_n(a): cost of splitting area x off.

    Nonnegative for n >= 5 over 0 <= a <= (n/2 - 2)*pi and
    0 <= x <= min(a, 2*pi), zero exactly at x = 0 (bitwise, since
    perimeter_from_area(4, 0.0) is exactly 0.0 and a - 0.0 == a).
    """
    if x < 0.0 or x > a:
        raise DomainError(f"need 0 <= x <= a, got x={x!r}, a={a!r}")
    _check_area(4.0, x)
    n = _check_area(n, a - x)
    _check_area(n, a)
    return _f(n, a, (x,), _perimeters_from_area(4.0, (x,)))[0]


def _f(n: float, a: float, xs, squares) -> list:
    """f(n, a, x) at each x of a row with P_4 line squares, for a checked n and 0 <= x <= a."""
    base = _perimeter_from_area(n, a)
    rests = _perimeters_from_area(n, [a - x for x in xs])
    return [square + rest - base for square, rest in zip(squares, rests)]


def _df_dx(n: float, a: float, xs, squares) -> list:
    """Partial derivative of f in x at each x of a row, for a checked n
    and 0 < x < a; squares is the row's P'_4, _perimeter_derivatives(4.0,
    xs), which rows with the same x-values share."""
    rests = _perimeter_derivatives(n, [a - x for x in xs])
    return [square - rest for square, rest in zip(squares, rests)]


MIN_SAMPLES = 100
# the least side count of each per-n sweep, checked before any sweep arithmetic
_LEMMA_3_3_MIN_N, _LEMMA_3_4_MIN_N = 4, 5


def _check_n(n, least: int) -> float:
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        raise DomainError(f"need integer n >= {least}, got {n!r}")
    return _check_sides(n)


class GridSpec(namedtuple("GridSpec", "steps samples")):
    """Sweep densities, integers: steps per axis of the 2d grids (at
    least 2), samples of the 1d sweeps (at least MIN_SAMPLES).  Every
    sweep takes its density from here, the one place it is checked."""

    __slots__ = ()

    def __new__(cls, steps: int = 40, samples: int = 10000):
        for name, value in (("steps", steps), ("samples", samples)):
            if type(value) is not int:
                raise ValidationError(f"grid {name} must be an integer, got {value!r}")
        if steps < 2:
            raise ValidationError("grid step counts must be at least 2")
        if samples < MIN_SAMPLES:
            raise ValidationError(f"need at least {MIN_SAMPLES} samples, got {samples!r}")
        return super().__new__(cls, steps, samples)


def verify_lemma_3_2(grid: GridSpec | None = None) -> CheckReport:
    """Positivity of the partial derivative of f in x on its large-n domain.

    Sweeps n over 8..64, a over [3*pi/2, (n/2-2)*pi] and x over
    (0, min(a - pi, 2*pi)) on a steps x steps midpoint grid, recording
    the minimum.  Also evaluates the constant
    (3 + 2*sqrt(2)) * (4/9) * (1/2), which the written argument needs
    to exceed 1, and checks it equals 1.29521 to within
    LEMMA_3_2_CONSTANT_TOL.
    """
    steps = (grid or GridSpec()).steps
    n_values = range(8, 65)

    # every row with a >= 3*pi has x_hi = 2*pi: those rows share one
    # x-row and so one P'_4 row
    x_full = 2.0 * math.pi
    full_xs = [x_full * (j + 0.5) / steps for j in range(steps)]
    full_squares = _perimeter_derivatives(4.0, full_xs)

    min_value = math.inf
    argmin = None
    count = 0
    for n in n_values:
        a_lo = 1.5 * math.pi
        a_hi = (n / 2.0 - 2.0) * math.pi
        # the grid's a - x all lie in (pi, a_hi)
        side = _check_area(n, a_hi, positive=True)
        for i in range(steps):
            a = a_lo + (a_hi - a_lo) * (i + 0.5) / steps
            x_hi = min(a - math.pi, x_full)
            if x_hi == x_full:
                xs, squares = full_xs, full_squares
            else:
                xs = [x_hi * (j + 0.5) / steps for j in range(steps)]
                squares = _perimeter_derivatives(4.0, xs)
            values = _df_dx(side, a, xs, squares)
            count += steps
            row_min = min(values)
            if row_min < min_value:
                min_value = row_min
                argmin = (n, a, xs[values.index(row_min)])

    constant = (3.0 + 2.0 * math.sqrt(2.0)) * (4.0 / 9.0) * 0.5
    constant_ok = abs(constant - 1.29521) <= tol.LEMMA_3_2_CONSTANT_TOL and constant > 1.0
    passed = min_value > 0.0 and constant_ok
    return CheckReport(
        check_id="lemma_3_2",
        passed=passed,
        domain=(
            f"n in {{{n_values[0]}..{n_values[-1]}}}, "
            "a in [3pi/2, (n/2-2)pi], x in (0, min(a-pi, 2pi))"
        ),
        grid_size=count,
        min_value=min_value,
        argmin=argmin,
        tolerance=tol.LEMMA_3_2_CONSTANT_TOL,
        details={
            "constant": constant,
            "constant_target": 1.29521,
            "constant_ok": constant_ok,
        },
    )


def verify_lemma_3_3(n: int, grid: GridSpec | None = None) -> CheckReport:
    """Sign pattern of the perimeter second derivative for one n.

    With c = cos(pi/n) and w = ((n-2)*pi - x)/(2n) = pi/2 - (2*pi + x)/(2n),
    the perimeter is P(x) = 2n*acosh(c/sin(w)) and dw/dx = -1/(2n), so

        P'(x)  = c*cos(w) / (sin(w) * sqrt(d)),   d = c**2 - sin(w)**2,
        P''(x) = (c/(2n)) * (d - sin(w)**2 * cos(w)**2) / (sin(w)**2 * d**1.5).

    On (0, (n-2)*pi) the angle w lies in (0, pi/2 - pi/n), so sin(w) > 0
    and d > 0, and c > 0 for n >= 3.  Hence, as c**2 = 1 - sin(pi/n)**2,

        sign P'' = sign(c**2 - sin(w)**2 * (1 + cos(w)**2))
                 = sign(cos(w)**4 - sin(pi/n)**2),

    which rises with x, as w falls.  So P'' changes sign once, from - to
    +, where cos(w) = sin((2*pi + x)/(2n)) = sqrt(sin(pi/n)), at
    x* = 2n*asin(sqrt(sin(pi/n))) - 2*pi.  The check requires
    0 < x* < (n-2)*pi and each midpoint sample of P'' to have the sign
    of x - x*, unless it is within SECOND_DERIVATIVE_TOL of 0.
    """
    side = _check_n(n, _LEMMA_3_3_MIN_N)
    samples = (grid or GridSpec()).samples
    span = _max_area(side)
    x_star = 2.0 * side * math.asin(math.sqrt(math.sin(math.pi / side))) - 2.0 * math.pi
    xs = [span * (i + 0.5) / samples for i in range(samples)]
    values = _perimeter_second_derivatives(side, xs)
    mismatch_xs = [
        x
        for x, value in zip(xs, values)
        if (value > 0.0) != (x > x_star) and abs(value) > tol.SECOND_DERIVATIVE_TOL
    ]
    return CheckReport(
        check_id=f"lemma_3_3_n{n}",
        passed=0.0 < x_star < span and not mismatch_xs,
        domain=f"x in (0, {span:.6g}), n={n}",
        grid_size=samples,
        min_value=None,
        argmin=None,
        tolerance=tol.SECOND_DERIVATIVE_TOL,
        details={
            "x_star": x_star,
            "sign_mismatches": len(mismatch_xs),
            "first_mismatch_x": mismatch_xs[0] if mismatch_xs else None,
        },
    )


# the documented monotonicity range, and where its failure is documented
_RATIO_CLAIM_MAX = 10
_RATIO_FAILURE_MIN = 21


def verify_lemma_3_4(n: int, grid: GridSpec | None = None) -> CheckReport:
    """Monotonicity of perimeter_from_area(n, x)/x on (0, (n/2-2)*pi).

    The ratio is documented to be strictly decreasing for n = 7..10
    (an auxiliary positivity fact is checked alongside), and documented
    to FAIL for large n (n > 20); for such n this report passes when a
    violation is exhibited.  For n = 5..6 the ratio is also decreasing
    (the restricted concavity range); n in 11..20 carries no
    documented claim, so those reports pass vacuously and simply
    record what was observed.
    """
    _check_n(n, _LEMMA_3_4_MIN_N)
    samples = (grid or GridSpec()).samples
    span = (n / 2.0 - 2.0) * math.pi
    xs = [span * (i + 0.5) / samples for i in range(samples)]
    ratios = [p / x for p, x in zip(_perimeters_from_area(n, xs), xs)]
    # drops[i] is the fall of the ratio from xs[i] to xs[i + 1]
    drops = [prev - ratio for prev, ratio in zip(ratios, ratios[1:])]
    min_drop = min(drops)
    argmin = (n, xs[drops.index(min_drop)])
    violation_x = next((x for x, drop in zip(xs, drops) if drop <= 0.0), None)
    decreasing = violation_x is None

    details = {"decreasing": decreasing, "violation_near_x": violation_x}
    if n <= _RATIO_CLAIM_MAX:
        expected = "decreasing"
        passed = decreasing
        if 7 <= n <= 10:
            aux = 1.21 * math.cos(2.0 * math.pi / n) - (math.pi / 2.0 - 2.0 * math.pi / n) ** 2
            details["auxiliary_constant"] = aux
            passed = passed and aux > 0.0
    elif n >= _RATIO_FAILURE_MIN:
        expected = "violation"
        passed = not decreasing
    else:
        expected = "undocumented"
        passed = True
    details["expected"] = expected
    return CheckReport(
        check_id=f"lemma_3_4_n{n}",
        passed=passed,
        domain=f"x in (0, {span:.6g}), n={n}",
        grid_size=samples,
        min_value=min_drop,
        argmin=argmin,
        tolerance=0.0,
        details=details,
    )


def verify_prop_3_5(grid: GridSpec | None = None) -> CheckReport:
    """Three monotonicity facts about the perimeter functions.

    1. perimeter at fixed right angle is strictly concave in the side
       count over [4, 64] (second differences negative);
    2. perimeter at fixed area a in {1, 5, 10} is strictly decreasing
       in the side count;
    3. P_6(x) - P_7(x) is positive and strictly increasing on
       (0, 4*pi).
    """
    samples = (grid or GridSpec()).samples
    details = {}
    passed = True
    count = 0

    # 1: concavity in n at theta = pi/2
    values = []
    for i in range(samples + 1):
        nv = 4.0 + 60.0 * i / samples
        values.append(_perimeter_from_angle(nv, math.pi / 2.0))
        count += 1
    worst_d2 = -math.inf
    worst_n = None
    for i in range(1, samples):
        d2 = values[i + 1] - 2.0 * values[i] + values[i - 1]
        if d2 > worst_d2:
            worst_d2 = d2
            worst_n = 4.0 + 60.0 * i / samples
    details["concavity_worst_second_difference"] = worst_d2
    details["concavity_worst_n"] = worst_n
    passed = passed and worst_d2 < 0.0

    # 2: decreasing in n at fixed areas
    worst_drop = math.inf
    for a in (1.0, 5.0, 10.0):
        lo = max(3.0, a / math.pi + 2.0)
        prev = None
        for i in range(samples):
            nv = lo + (64.0 - lo) * (i + 0.5) / samples
            p = _perimeter_from_area(nv, a)
            count += 1
            if prev is not None:
                worst_drop = min(worst_drop, prev - p)
            prev = p
    details["decreasing_min_drop"] = worst_drop
    passed = passed and worst_drop > 0.0

    # 3: P_6 - P_7 positive and increasing on (0, 4*pi)
    xs = [4.0 * math.pi * (i + 0.5) / samples for i in range(samples)]
    gaps = [
        p6 - p7
        for p6, p7 in zip(_perimeters_from_area(6.0, xs), _perimeters_from_area(7.0, xs))
    ]
    count += 2 * samples
    min_gap = min(gaps)
    min_rise = min(gap - prev for prev, gap in zip(gaps, gaps[1:]))
    details["gap_min"] = min_gap
    details["gap_min_rise"] = min_rise
    passed = passed and min_gap > 0.0 and min_rise > 0.0

    return CheckReport(
        check_id="prop_3_5",
        passed=passed,
        domain="n in [4, 64] at theta=pi/2; n sweeps at a in {1,5,10}; x in (0, 4pi)",
        grid_size=count,
        min_value=None,
        argmin=None,
        tolerance=0.0,
        details=details,
    )


def verify_prop_3_6(grid: GridSpec | None = None) -> CheckReport:
    """Nonnegativity of f with equality only on the x = 0 line.

    Sweeps n over 5..40, a over [0, (n/2-2)*pi] and x over
    [0, min(a, 2*pi)] on a steps x steps grid with endpoints included.
    Passes when the grid minimum is >= -INEQ_TOL and every grid point
    with |f| < INEQ_TOL sits at x smaller than the local grid step.
    """
    steps = (grid or GridSpec()).steps
    n_values = range(5, 41)

    # every row capped at x_full shares one x-row and so one P_4 row
    x_full = 2.0 * math.pi * (1.0 - tol.X_CAP_MARGIN)
    full_xs = [x_full * j / steps for j in range(steps + 1)]
    full_squares = _perimeters_from_area(4.0, full_xs)
    min_value = math.inf
    argmin = None
    count = 0
    near_zero_off_line = 0
    exact_zero_line = True
    for n in n_values:
        a_hi = (n / 2.0 - 2.0) * math.pi
        # the grid's a and a - x all lie in [0, a_hi]
        side = _check_area(n, a_hi)
        for i in range(steps + 1):
            a = a_hi * i / steps
            x_cap = min(a, x_full)
            step = x_cap / steps if x_cap > 0.0 else 1.0
            xs, squares = full_xs, full_squares
            if x_cap < x_full:
                # at a = 0 the row is the one point x = 0
                xs = [x_cap * j / steps for j in range(steps + 1 if x_cap > 0.0 else 1)]
                squares = _perimeters_from_area(4.0, xs)
            count += len(xs)
            for x, value in zip(xs, _f(side, a, xs, squares)):
                if x == 0.0 and value != 0.0:
                    exact_zero_line = False
                if value < min_value:
                    min_value = value
                    argmin = (n, a, x)
                if abs(value) < tol.INEQ_TOL and x >= step:
                    near_zero_off_line += 1
    passed = (
        min_value >= -tol.INEQ_TOL and near_zero_off_line == 0 and exact_zero_line
    )
    return CheckReport(
        check_id="prop_3_6",
        passed=passed,
        domain=(
            f"n in {{{n_values[0]}..{n_values[-1]}}}, "
            "a in [0, (n/2-2)pi], x in [0, min(a, 2pi)]"
        ),
        grid_size=count,
        min_value=min_value,
        argmin=argmin,
        tolerance=tol.INEQ_TOL,
        details={
            "near_zero_off_line": near_zero_off_line,
            "exact_zero_at_x0": exact_zero_line,
        },
    )


class PolygonFamily:
    """Ordered list of (side count, area) pairs."""

    __slots__ = ("items", "_angles")

    def __init__(self, items):
        self.items = tuple(map(tuple, items))
        self._angles = None

    @property
    def k(self) -> int:
        return len(self.items)

    @property
    def angles(self) -> tuple:
        """Member interior angles, computed once per family.  The members
        are not checked here: IsoperimetricInstance checks them once,
        when it is made."""
        if self._angles is None:
            self._angles = tuple(_angle_from_area(m, a) for m, a in self.items)
        return self._angles

    @classmethod
    def by_angle(cls, items) -> "PolygonFamily":
        """The family of items in descending angle order, equal angles in
        their given order; it keeps the angles the sort computed."""
        angles = [_angle_from_area(m, a) for m, a in items]
        order = sorted(range(len(items)), key=angles.__getitem__, reverse=True)
        family = cls([items[i] for i in order])
        family._angles = tuple([angles[i] for i in order])
        return family

    def total_area(self) -> float:
        return sum(map(itemgetter(1), self.items))

    def merged_sides(self) -> int:
        return sum(map(itemgetter(0), self.items)) - 4 * len(self.items) + 4

    def is_sorted_by_angle(self) -> bool:
        ang = self.angles
        return all(a >= b - tol.ANGLE_TOL for a, b in zip(ang, ang[1:]))


class IsoperimetricInstance:
    """A polygon family and the target polygon it competes against.

    The target is the regular polygon with the family's merged side
    count sum(m_i) - 4k + 4 and its total area, so the side-count
    balance and the area match hold by construction.  The constructor
    runs validate_instance and keeps the target it returns, so every
    instance meets the hypotheses of the inequality: side counts >= 4
    and target angle >= pi/2.
    """

    __slots__ = ("family", "target")

    def __init__(self, family: PolygonFamily):
        self.family = family
        self.target = validate_instance(self)


def validate_instance(inst: IsoperimetricInstance) -> RegularPolygonSpec:
    """Refuse an instance outside the hypotheses of the inequality
    (ValidationError), else return its target; the constructor runs this."""
    fam = inst.family
    if fam.k < 1:
        raise ValidationError("family must contain at least one polygon")
    for m, a in fam.items:
        if isinstance(m, bool) or not isinstance(m, int) or m < 4:
            raise ValidationError(f"member side count {m!r} invalid (must be integer >= 4)")
        if not 0.0 <= a < _max_area(m):
            raise ValidationError(
                f"member area {a!r} outside [0, {_max_area(m)}) for {m} sides"
            )
    try:
        target = RegularPolygonSpec.from_area(fam.merged_sides(), fam.total_area())
    except DomainError as exc:
        raise ValidationError(f"the family has no target polygon: {exc}") from exc
    if target.theta < math.pi / 2.0 - tol.ANGLE_TOL:
        raise ValidationError(f"target angle {target.theta!r} below pi/2")
    return target


def check_instance(inst: IsoperimetricInstance) -> dict:
    """Evaluate both sides of the inequality for one instance.

    Returns {lhs, rhs, holds, equality} with lhs the target perimeter
    and rhs the family perimeter total.
    """
    lhs = _perimeter_from_area(inst.target.n, inst.target.area)
    rhs = sum(_perimeter_from_area(float(m), a) for m, a in inst.family.items)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs <= rhs + tol.INEQ_TOL,
        "equality": abs(lhs - rhs) < tol.INEQ_TOL,
    }


EqualityClassification = namedtuple("EqualityClassification", "expected_shape nondegenerate_count")


def classify_equality(inst: IsoperimetricInstance) -> EqualityClassification:
    """Equality must mean: one member congruent to the target, rest
    degenerate (area and perimeter both below DEGENERATE_TOL).

    expected_shape says whether the family has that shape; a fully
    degenerate family has it when the target is degenerate too.
    """
    nondeg = [
        (m, a)
        for m, a in inst.family.items
        if a >= tol.DEGENERATE_TOL or _perimeter_from_area(m, a) >= tol.DEGENERATE_TOL
    ]
    if len(nondeg) == 0:
        expected = inst.target.area < tol.DEGENERATE_TOL
    elif len(nondeg) == 1:
        m, a = nondeg[0]
        expected = m == int(inst.target.n) and abs(a - inst.target.area) <= tol.DEGENERATE_TOL
    else:
        expected = False
    return EqualityClassification(expected_shape=expected, nondegenerate_count=len(nondeg))


def merge_sequence(inst: IsoperimetricInstance) -> tuple:
    """Absorb family members one at a time into growing partial merges.

    Returns one RegularPolygonSpec per member: step j is the regular
    polygon with sum(m_i, i<=j) - 4j + 4 sides carrying the combined
    area of the first j members.  Requires the family sorted by
    descending angle; the final step reproduces the target.
    """
    if not inst.family.is_sorted_by_angle():
        raise ValidationError("family must be sorted by descending angle")
    steps = []
    sides = 0
    area = 0.0
    for j, (m, a) in enumerate(inst.family.items, start=1):
        sides += m
        area += a
        try:
            steps.append(RegularPolygonSpec.from_area(sides - 4 * j + 4, area))
        except DomainError as exc:
            raise ValidationError(
                f"merge step {j} leaves the polygon domain: {exc}"
            ) from exc
    return tuple(steps)


def random_instance(rng: random.Random) -> IsoperimetricInstance:
    """Draw a random instance within the hypotheses.

    Up to 5 members with side counts uniform in [4, 12], a target
    angle uniform in [pi/2, euclidean limit), and the area split by a
    symmetric Dirichlet draw, drawn again until every member area lies
    in its domain.
    """
    k = rng.randint(1, 5)
    ms = [rng.randint(4, 12) for _ in range(k)]
    m = sum(ms) - 4 * k + 4
    if m == 4:
        # all members are squares; the only target of angle >= pi/2 is degenerate
        target_area = 0.0
        areas = [0.0] * k
    else:
        theta = rng.uniform(math.pi / 2.0, _max_angle(m))
        target_area = max(0.0, _area_from_angle(m, theta))
        tops = [_max_area(mi) for mi in ms]
        # a draw fits with probability above 0.2 for every k <= 5 and
        # sides in 4..12, even at the largest target (angle pi/2)
        while True:
            weights = [rng.gammavariate(1.0, 1.0) for _ in range(k)]
            total = sum(weights)
            areas = [target_area * w / total for w in weights]
            areas[-1] = target_area - sum(areas[:-1])
            if all(0.0 <= a < top for a, top in zip(areas, tops)):
                break
    return IsoperimetricInstance(PolygonFamily.by_angle(tuple(zip(ms, areas))))


class InstanceDraw(namedtuple("InstanceDraw", "seed instances")):
    """Random instances from random.Random(seed), shared by both random suites."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.instances)


def draw_instances(count: int, seed: int) -> InstanceDraw:
    """Draw count instances with random_instance from random.Random(seed).

    Raises DomainError for a count that is not an integer of at least 1;
    a count of 0 would pass vacuously.
    """
    if type(count) is not int or count < 1:
        raise DomainError(f"instance count must be at least 1, got {count!r}")
    rng = random.Random(seed)
    instances = tuple(random_instance(rng) for _ in range(count))
    return InstanceDraw(seed=seed, instances=instances)


def verify_theorem_3_1(draw: InstanceDraw) -> CheckReport:
    """Randomized sweep of the inequality plus equality classification."""
    min_margin = math.inf
    argmin = None
    equalities = 0
    classifier_failures = 0
    holds_failures = 0
    for inst in draw.instances:
        result = check_instance(inst)
        margin = result["rhs"] - result["lhs"]
        if margin < min_margin:
            min_margin = margin
            argmin = (inst.family.k, tuple(m for m, _ in inst.family.items))
        if not result["holds"]:
            holds_failures += 1
        if result["equality"]:
            equalities += 1
            if not classify_equality(inst).expected_shape:
                classifier_failures += 1
    passed = holds_failures == 0 and classifier_failures == 0
    return CheckReport(
        check_id="theorem_3_1",
        passed=passed,
        domain=f"{draw.count} random instances, k<=5, sides in [4,12], seed={draw.seed}",
        grid_size=draw.count,
        min_value=min_margin,
        argmin=argmin,
        tolerance=tol.INEQ_TOL,
        details={
            "equalities": equalities,
            "holds_failures": holds_failures,
            "classifier_failures": classifier_failures,
        },
    )


def verify_merge_properties(draw: InstanceDraw) -> CheckReport:
    """Angle bounds along the merge sequence on random instances.

    Checks, for each instance: every partial-merge angle is at least
    pi/2 (up to ANGLE_TOL), the final merge reproduces the target, the
    largest member angle is at least pi/2 and the smallest member
    angle is at most the target angle.
    """
    min_excess = math.inf
    argmin = None
    failures = 0
    final_mismatches = 0
    bound_failures = 0
    for index, inst in enumerate(draw.instances):
        steps = merge_sequence(inst)
        for j, step in enumerate(steps, start=1):
            excess = step.theta - math.pi / 2.0
            if excess < min_excess:
                min_excess = excess
                argmin = (index, j)
            if excess < -tol.ANGLE_TOL:
                failures += 1
        last = steps[-1]
        area_slack = tol.MERGE_AREA_TOL * max(1.0, inst.target.area)
        if int(last.n) != int(inst.target.n) or abs(last.area - inst.target.area) > area_slack:
            final_mismatches += 1
        angles = inst.family.angles
        if max(angles) < math.pi / 2.0 - tol.ANGLE_TOL:
            bound_failures += 1
        if min(angles) > inst.target.theta + tol.ANGLE_TOL:
            bound_failures += 1
    passed = failures == 0 and final_mismatches == 0 and bound_failures == 0
    return CheckReport(
        check_id="merge_sequence",
        passed=passed,
        domain=f"{draw.count} random instances, k<=5, sides in [4,12], seed={draw.seed}",
        grid_size=draw.count,
        min_value=min_excess,
        argmin=argmin,
        tolerance=tol.ANGLE_TOL,
        details={
            "merge_angle_failures": failures,
            "final_step_mismatches": final_mismatches,
            "member_angle_bound_failures": bound_failures,
        },
    )


def verify_example_3_12() -> CheckReport:
    """The inequality genuinely needs its hypotheses.

    The family (6, 4.99), (3, 0.01) has a triangle member (3 sides < 4)
    and a sharp target, the pentagon of area 5 (angle < pi/2).  Its
    conclusion fails by more than 0.5: P_6(4.99) + P_3(0.01) + 0.5 <
    P_5(5).  IsoperimetricInstance must refuse the family, and the
    inequality, compared as check_instance compares it, must fail.
    """
    family = PolygonFamily(((6, 4.99), (3, 0.01)))
    target = RegularPolygonSpec.from_area(family.merged_sides(), family.total_area())
    p6 = perimeter_from_area(6, 4.99)
    p3 = perimeter_from_area(3, 0.01)
    p5 = target.perimeter
    margin = p5 - (p6 + p3 + 0.5)

    try:
        IsoperimetricInstance(family)
        rejected = False
    except ValidationError:
        rejected = True

    holds = p5 <= p6 + p3 + tol.INEQ_TOL
    passed = (
        margin > tol.INEQ_TOL
        and rejected
        and not holds
        and target.theta < math.pi / 2.0
    )
    return CheckReport(
        check_id="example_3_12",
        passed=passed,
        domain="single instance: members (6, 4.99), (3, 0.01); target (5, 5)",
        grid_size=1,
        min_value=margin,
        argmin=None,
        tolerance=tol.INEQ_TOL,
        details={
            "p6_of_4.99": p6,
            "p3_of_0.01": p3,
            "p5_of_5": p5,
            "sum_plus_half": p6 + p3 + 0.5,
            "strict_rejected": rejected,
            "permissive_holds": holds,
            "target_theta": target.theta,
        },
    )
