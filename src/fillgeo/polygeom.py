"""Geometry of regular hyperbolic polygons.

All lengths and areas are taken in the hyperbolic plane of constant
curvature -1, angles in radians.  A regular n-gon with interior angle
theta exists for 0 < theta < (n-2)*pi/n, and its area is
(pi - theta)*n - 2*pi.  The angle is determined by the area and vice
versa, so perimeter can be parametrised either way.

The side count n is accepted as any real number >= 3 whose area bound
(n-2)*pi is a finite float: several monotonicity and concavity checks
sweep n continuously.  Constructors
that describe an actual geometric polygon insist on integers.

Degenerate polygons (area 0, collapsed to a point) are inside the
domain: perimeter_from_area(n, 0.0) returns exactly 0.0, and the
formulas are arranged so this holds bitwise, not just approximately.

Public functions validate their arguments, then call a private kernel
that holds the formula and assumes validated input.  The perimeter and
its two area derivatives are line kernels: one side count and a sequence
of areas in, one value per area out (a single value is a one-element
line), the side count's constants computed once per call; the second
derivative's line can also give Lemma 3.3's sign criterion from its sin
and cos.  The isoperim sweeps evaluate one line per n or distinct row.
"""

import math
import sys
from collections import namedtuple

from . import tolerances as tol
from .errors import DomainError


def _acosh_clamped(x: float) -> float:
    if x >= 1.0:
        return math.acosh(x)
    if x >= 1.0 - tol.ACOSH_CLAMP:
        return 0.0
    raise DomainError(
        f"acosh argument {x!r} is below 1 by more than {tol.ACOSH_CLAMP}"
    )


def _max_area(n: float) -> float:
    return (n - 2.0) * math.pi


# the largest side count whose area bound (n - 2)*pi is a finite float
_MAX_SIDES = sys.float_info.max / math.pi


def _check_sides(n) -> float:
    if isinstance(n, bool) or not isinstance(n, (int, float)):
        raise DomainError(f"side count must be a number, got {n!r}")
    if not n >= 3:
        raise DomainError(f"side count must be at least 3, got {n!r}")
    if not n <= _MAX_SIDES:
        # an int this large has too many digits to print whole
        got = repr(n) if isinstance(n, float) else f"an integer of {n.bit_length()} bits"
        raise DomainError(f"side count must be finite and at most {_MAX_SIDES:.6g}, got {got}")
    return float(n)


def _check_angle(n, theta) -> float:
    """Check n and an angle in (0, pi); returns n as a float."""
    n = _check_sides(n)
    if not 0.0 < theta < math.pi:
        raise DomainError(f"interior angle must lie in (0, pi), got {theta!r}")
    return n


def _check_area(n, area, positive: bool = False) -> float:
    """Check n and an area in [0, (n-2)*pi), or (0, ...) if positive."""
    n = _check_sides(n)
    top = _max_area(n)
    if not ((0.0 < area) if positive else (0.0 <= area)) or not area < top:
        raise DomainError(
            f"area must lie in {'(' if positive else '['}0, {top}), got {area!r}"
        )
    return n


def _check_genus(g) -> int:
    if isinstance(g, bool) or not isinstance(g, int):
        raise DomainError(f"genus must be an integer, got {g!r}")
    if g < 2:
        raise DomainError(f"genus must be at least 2, got {g!r}")
    return g


def max_area(n) -> float:
    """Supremum (n-2)*pi of areas of regular n-gons; not attained."""
    return _max_area(_check_sides(n))


def _max_angle(n: float) -> float:
    return _max_area(n) / n


def max_angle(n) -> float:
    """Supremum of interior angles, the Euclidean value (n-2)*pi/n.

    Attained only by the degenerate (area 0) polygon.
    """
    return _max_angle(_check_sides(n))


def _area_from_angle(n: float, theta: float) -> float:
    return (math.pi - theta) * n - 2.0 * math.pi


def area_from_angle(n, theta: float) -> float:
    """(pi - theta)*n - 2*pi for theta in (0, pi).

    May be negative or zero; callers needing a geometric polygon must
    check positivity themselves.  Zero means the degenerate polygon.
    """
    return _area_from_angle(_check_angle(n, theta), theta)


def _angle_from_area(n: float, area: float) -> float:
    return math.pi - (area + 2.0 * math.pi) / n


def angle_from_area(n, area: float) -> float:
    """Interior angle of the regular n-gon with the given area."""
    return _angle_from_area(_check_area(n, area), area)


def _perimeters_from_area(n: float, areas) -> list:
    """perimeter_from_area(n, area) for each area, n and areas checked."""
    c = math.cos(math.pi / n)
    two_n = 2.0 * n
    two_pi = 2.0 * math.pi
    perimeters = []
    for area in areas:
        perimeters.append(two_n * _acosh_clamped(c / math.cos((two_pi + area) / two_n)))
    return perimeters


def _perimeter_from_area(n: float, area: float) -> float:
    return _perimeters_from_area(n, (area,))[0]


def perimeter_from_area(n, area: float) -> float:
    """Perimeter of the regular n-gon of the given area.

    Computed as 2*n*acosh(cos(pi/n) / cos((2*pi + area) / (2*n))).  At
    area 0 the two cosine arguments coincide bitwise, so the result is
    exactly 0.0.  Increasing in area only as far as the rounded sum
    2*pi + area resolves it: its float spacing is about 8.9e-16 for area
    below 2*pi, so a positive area under half that spacing gives exactly
    0.0, and areas within a few hundred spacings of 0 are off by percents
    either way (for n = 5, 2.107e-7 for 8.524e-8 at area 5e-16 and
    3.650e-7 for 3.812e-7 at 1e-14).
    """
    return _perimeter_from_area(_check_area(n, area), area)


def _side_length(n: float, theta: float) -> float:
    ratio = math.cos(math.pi / n) / math.cos(math.pi / 2.0 - theta / 2.0)
    return 2.0 * _acosh_clamped(ratio)


def side_length(n, theta: float) -> float:
    """Length of one side of the regular n-gon with interior angle theta."""
    return _side_length(_check_angle(n, theta), theta)


def _perimeter_from_angle(n: float, theta: float) -> float:
    return n * _side_length(n, theta)


def perimeter_from_angle(n, theta: float) -> float:
    """Perimeter n * side_length(n, theta) of the regular n-gon.

    Defined when cos(pi/n) >= sin(theta/2), i.e. n >= 2*pi/(pi-theta).
    Written with cos(pi/2 - theta/2) rather than sin(theta/2) so the
    right-angled square comes out exactly degenerate: at n = 4,
    theta = pi/2 the two cosine arguments agree bitwise and the
    perimeter is exactly 0.0.
    """
    return _perimeter_from_angle(_check_angle(n, theta), theta)


def _perimeter_derivatives(n: float, areas) -> list:
    """perimeter_derivative(n, area) for each area, n and areas checked."""
    c = math.cos(math.pi / n)
    c2 = c * c
    two_n = 2.0 * n
    two_pi = 2.0 * math.pi
    slopes = []
    for area in areas:
        u = (two_pi + area) / two_n
        under = c2 - math.cos(u) ** 2
        if under <= 0.0:
            raise DomainError(f"derivative undefined at area {area!r} for n = {n}")
        slopes.append(c * math.tan(u) / math.sqrt(under))
    return slopes


def perimeter_derivative(n, area: float) -> float:
    """d/d(area) of perimeter_from_area at fixed n.

    Defined on the open range (0, (n-2)*pi); blows up like
    area**-0.5 at the degenerate end and diverges at the supremum too.
    """
    return _perimeter_derivatives(_check_area(n, area, positive=True), (area,))[0]


def _perimeter_second_derivatives(n: float, areas) -> list:
    """perimeter_second_derivative(n, area) for each area, n and areas checked."""
    top = _max_area(n)
    two_n = 2.0 * n
    c = math.cos(math.pi / n)
    c2 = c * c
    scale = c / two_n
    curvatures = []
    for area in areas:
        w = (top - area) / two_n
        sw = math.sin(w)
        cw = math.cos(w)
        s2 = sw * sw
        d = c2 - s2
        if d <= 0.0:
            raise DomainError(
                f"second derivative undefined at area {area!r} for n = {n}"
            )
        curvatures.append(scale * (1.0 / (s2 * math.sqrt(d)) - cw * cw / d**1.5))
    return curvatures


def perimeter_second_derivative(n, area: float) -> float:
    """Second derivative of perimeter_from_area in area, at fixed n.

    With w = ((n-2)*pi - area) / (2*n) this equals

        (cos(pi/n) / (2*n)) * ( 1 / (sin(w)**2 * sqrt(D))
                                - cos(w)**2 / D**1.5 )

    where D = cos(pi/n)**2 - sin(w)**2.  Nonnegative exactly when
    cos(pi/n)**2 >= sin(w)**2 * (1 + cos(w)**2); negative for small
    area, positive near the supremum, one sign change in between.
    """
    return _perimeter_second_derivatives(_check_area(n, area, positive=True), (area,))[0]


def circumradius(n, theta: float) -> float:
    """Distance from the center of the regular n-gon to a vertex.

    cosh(R) = cot(pi/n) * cot(theta/2).  The degenerate polygon has
    R = 0; because cot*cot only rounds to within an ulp of 1 there,
    values within CIRCUMRADIUS_SNAP of 1 snap to R = 0 so the
    degenerate case is exact.  Angles past the Euclidean limit raise
    DomainError.
    """
    n = _check_angle(n, theta)
    value = 1.0 / (math.tan(math.pi / n) * math.tan(theta / 2.0))
    if abs(value - 1.0) <= tol.CIRCUMRADIUS_SNAP:
        return 0.0
    return _acosh_clamped(value)


class RegularPolygonSpec(namedtuple("RegularPolygonSpec", "n theta area")):
    """A regular hyperbolic polygon: side count plus angle and area.

    Store n and one of {theta, area}; the classmethods derive the
    other so the Gauss-Bonnet relation holds by construction.
    """

    __slots__ = ()

    @classmethod
    def from_angle(cls, n, theta: float) -> "RegularPolygonSpec":
        area = area_from_angle(n, theta)
        if area < 0.0:
            raise DomainError(
                f"angle {theta!r} exceeds the Euclidean limit for n = {n}"
            )
        return cls(n=float(n), theta=theta, area=area)

    @classmethod
    def from_area(cls, n, area: float) -> "RegularPolygonSpec":
        n = _check_area(n, area)
        # positional fields: keywords cost about 0.7 us more, once per merge step
        return cls(n, _angle_from_area(n, area), area)

    @property
    def side(self) -> float:
        return side_length(self.n, self.theta)

    @property
    def perimeter(self) -> float:
        return perimeter_from_area(self.n, self.area)

    @property
    def circumradius(self) -> float:
        return circumradius(self.n, self.theta)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "theta": self.theta,
            "area": self.area,
            "side": self.side,
            "perimeter": self.perimeter,
            "circumradius": self.circumradius,
        }


def min_filling_length(g: int) -> float:
    """Shortest possible length of a filling closed geodesic, genus g.

    Equals half the perimeter of the right-angled regular (8g-4)-gon:
    the minimiser is the geodesic whose complement is that polygon,
    each side of which carries two arcs of the geodesic.
    """
    g = _check_genus(g)
    return 0.5 * perimeter_from_angle(8 * g - 4, math.pi / 2.0)


def kissing_lower_bound(g: int, sys: float) -> float:
    """min_filling_length(g) / sys.

    Lower bound for the number of distinct shortest filling geodesics
    on a closed hyperbolic surface of genus g with systole sys.
    """
    g = _check_genus(g)
    if not sys > 0.0:
        raise DomainError(f"systole must be positive, got {sys!r}")
    return min_filling_length(g) / sys


class ExtremalReport(namedtuple(
    "ExtremalReport", "genus min_filling_length polygon_side polygon_perimeter"
)):
    """Data about the genus-g length minimiser."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


def extremal_report(g: int) -> ExtremalReport:
    """The right-angled regular (8g-4)-gon and the length it realizes."""
    g = _check_genus(g)
    n = 8 * g - 4
    perim = perimeter_from_angle(n, math.pi / 2.0)
    return ExtremalReport(
        genus=g,
        min_filling_length=0.5 * perim,
        polygon_side=side_length(n, math.pi / 2.0),
        polygon_perimeter=perim,
    )
