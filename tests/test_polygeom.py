"""Tests for regular-polygon geometry.

Reference decimals were computed independently with mpmath at 50
digits (see scripts/run_all_verifications.py for the recipe) and are
frozen here as double literals.
"""

import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from fillgeo import polygeom, tolerances
from fillgeo.errors import DomainError
from fillgeo.polygeom import (
    area_from_angle,
    angle_from_area,
    perimeter_from_area,
    perimeter_from_angle,
    side_length,
    perimeter_derivative,
    perimeter_second_derivative,
    circumradius,
    RegularPolygonSpec,
    min_filling_length,
    extremal_report,
    kissing_lower_bound,
    max_area,
    max_angle,
)

# Half-perimeters of the right-angled regular (8g-4)-gon, g = 2..10,
# mpmath dps=50.
MIN_LENGTH_ORACLE = {
    2: 9.977315346351726454,
    3: 17.274867867665954251,
    4: 24.427894467049828254,
    5: 31.534972857337013050,
    6: 38.621488975176425506,
    7: 45.697012885407655461,
    8: 52.765967655463642047,
    9: 59.830682130079138862,
    10: 66.892499984565433243,
}

PERIMETER_12_RIGHT = 19.954630692703452908
SIDE_12_RIGHT = 1.6628858910586210757
CIRCUMRADIUS_12_RIGHT = 1.9916523910494368241


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def test_min_filling_length_matches_oracle():
    for g, expected in MIN_LENGTH_ORACLE.items():
        got = min_filling_length(g)
        assert rel_err(got, expected) <= 1e-12, (g, got, expected)


def test_genus_two_polygon_values():
    assert rel_err(perimeter_from_angle(12, math.pi / 2), PERIMETER_12_RIGHT) <= 1e-12
    assert rel_err(side_length(12, math.pi / 2), SIDE_12_RIGHT) <= 1e-12
    assert rel_err(circumradius(12, math.pi / 2), CIRCUMRADIUS_12_RIGHT) <= 1e-12
    area = area_from_angle(12, math.pi / 2)
    assert rel_err(area, 4 * math.pi) <= 1e-12
    assert rel_err(perimeter_from_area(12, area), PERIMETER_12_RIGHT) <= 1e-12


def test_degenerate_polygons_are_exactly_zero():
    for n in (3, 4, 5, 12, 40, 6.5):
        assert perimeter_from_area(n, 0.0) == 0.0
    # the right-angled square is degenerate, bitwise
    assert area_from_angle(4, math.pi / 2) == 0.0
    assert perimeter_from_angle(4, math.pi / 2) == 0.0
    assert side_length(4, math.pi / 2) == 0.0
    assert circumradius(4, math.pi / 2) == 0.0


def test_area_from_angle_may_be_negative():
    # angles past the Euclidean limit give negative area, no error
    assert area_from_angle(4, 2.0) < 0.0
    assert area_from_angle(3, math.pi / 3) == pytest.approx(0.0, abs=1e-12)


def test_degenerate_circumradius_snaps_to_zero():
    for n in (3, 4, 7, 12):
        assert circumradius(n, max_angle(n)) == 0.0


@given(
    st.integers(min_value=3, max_value=80),
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_area_angle_roundtrip(n, t):
    area = t * max_area(n)
    theta = angle_from_area(n, area)
    assert 0.0 < theta < max_angle(n)
    back = area_from_angle(n, theta)
    assert abs(back - area) <= 1e-9 * max(1.0, area)


@given(
    st.integers(min_value=3, max_value=80),
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_perimeter_parametrisations_agree(n, t):
    area = t * max_area(n)
    theta = angle_from_area(n, area)
    p1 = perimeter_from_area(n, area)
    p2 = perimeter_from_angle(n, theta)
    assert abs(p1 - p2) <= 1e-9 * max(1.0, p1)
    assert abs(side_length(n, theta) * n - p2) <= 1e-9 * max(1.0, p2)


@given(
    st.integers(min_value=3, max_value=80),
    st.floats(min_value=1e-4, max_value=1 - 1e-4),
    st.floats(min_value=1e-4, max_value=1 - 1e-4),
)
def test_perimeter_strictly_increasing_in_area(n, t1, t2):
    if abs(t1 - t2) < 1e-9:
        return
    x1, x2 = sorted((t1 * max_area(n), t2 * max_area(n)))
    assert perimeter_from_area(n, x1) < perimeter_from_area(n, x2)


def test_perimeter_strictly_decreasing_in_sides():
    # at fixed area, more sides means shorter perimeter
    for a in (1.0, 5.0, 10.0):
        lo = max(3.0, a / math.pi + 2.0)
        ns = [lo + (64.0 - lo) * (i + 1) / 400 for i in range(400)]
        values = [perimeter_from_area(n, a) for n in ns]
        for v1, v2 in zip(values, values[1:]):
            assert v2 < v1


def test_derivative_matches_finite_differences():
    h = 1e-6
    for n in (4, 5, 7, 12, 30):
        for t in (0.1, 0.35, 0.6, 0.9):
            x = t * max_area(n)
            fd = (perimeter_from_area(n, x + h) - perimeter_from_area(n, x - h)) / (2 * h)
            d = perimeter_derivative(n, x)
            assert abs(d - fd) <= max(1e-7, 1e-6 * abs(d)), (n, x, d, fd)


def test_derivative_grid_sweep():
    # dense 1d sweep on a representative polygon
    n = 6
    h = 1e-6
    for i in range(1, 1000):
        x = max_area(n) * i / 1000.0
        if x - h <= 0 or x + h >= max_area(n):
            continue
        fd = (perimeter_from_area(n, x + h) - perimeter_from_area(n, x - h)) / (2 * h)
        d = perimeter_derivative(n, x)
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))


def test_derivative_endpoint_divergence():
    assert perimeter_derivative(6, 1e-7) > 1e3
    assert perimeter_derivative(4, 2 * math.pi - 1e-7) > 1e3


def test_second_derivative_matches_finite_differences():
    h = 1e-4
    for n in (4, 5, 7, 12, 30):
        for t in (0.1, 0.35, 0.6, 0.9):
            x = t * max_area(n)
            p0 = perimeter_from_area(n, x)
            fd = (
                perimeter_from_area(n, x + h)
                - 2 * p0
                + perimeter_from_area(n, x - h)
            ) / (h * h)
            d2 = perimeter_second_derivative(n, x)
            assert abs(d2 - fd) <= max(1e-5, 1e-4 * abs(d2)), (n, x, d2, fd)


def test_second_derivative_sign_pattern():
    # concave near area 0, convex near the supremum
    for n in (4, 6, 12, 20):
        hi = max_area(n)
        assert perimeter_second_derivative(n, 0.05 * hi) < 0
        assert perimeter_second_derivative(n, 0.99 * hi) > 0


def test_second_derivative_sign_criterion():
    # sign must agree with cos(pi/n)**2 >= sin(w)**2 * (1 + cos(w)**2)
    for n in (5, 9, 14):
        for i in range(1, 200):
            x = max_area(n) * i / 200.0
            w = ((n - 2) * math.pi - x) / (2 * n)
            lhs = math.cos(math.pi / n) ** 2
            rhs = math.sin(w) ** 2 * (1 + math.cos(w) ** 2)
            d2 = perimeter_second_derivative(n, x)
            if abs(lhs - rhs) > 1e-12:
                assert (d2 >= 0) == (lhs >= rhs), (n, x)


def test_circumradius_right_triangle_identity():
    # cosh(R) = cosh(side/2) * cosh(apothem), with
    # cosh(apothem) = cos(theta/2) / sin(pi/n)
    for n in (3, 5, 12, 17):
        for t in (0.2, 0.5, 0.8):
            theta = t * max_angle(n)
            r = circumradius(n, theta)
            s = side_length(n, theta)
            apothem = math.acosh(math.cos(theta / 2) / math.sin(math.pi / n))
            assert rel_err(math.cosh(r), math.cosh(s / 2) * math.cosh(apothem)) <= 1e-12


def test_regular_polygon_spec():
    spec = RegularPolygonSpec.from_angle(12, math.pi / 2)
    assert spec.n == 12
    assert rel_err(spec.area, 4 * math.pi) <= 1e-12
    assert rel_err(spec.perimeter, PERIMETER_12_RIGHT) <= 1e-12
    assert rel_err(spec.side, SIDE_12_RIGHT) <= 1e-12
    assert rel_err(spec.circumradius, CIRCUMRADIUS_12_RIGHT) <= 1e-12
    by_area = RegularPolygonSpec.from_area(12, spec.area)
    assert rel_err(by_area.theta, math.pi / 2) <= 1e-12
    keys = set(spec.as_dict())
    assert keys == {"n", "theta", "area", "side", "perimeter", "circumradius"}
    degenerate = RegularPolygonSpec.from_area(4, 0.0)
    assert degenerate.perimeter == 0.0


def test_regular_polygon_spec_record():
    # a spec prints, compares and hashes by its fields and is immutable
    spec = RegularPolygonSpec.from_area(12, 6.0)
    assert repr(spec) == "RegularPolygonSpec(n=12.0, theta=2.117993877991494, area=6.0)"
    assert spec == RegularPolygonSpec.from_area(12, 6.0)
    assert hash(spec) == hash(RegularPolygonSpec.from_area(12, 6.0))
    assert spec != RegularPolygonSpec.from_area(12, 6.5)
    for name in ("n", "theta", "area"):
        with pytest.raises(AttributeError):
            setattr(spec, name, 1.0)
    rep = extremal_report(2)
    assert rep == extremal_report(2)
    with pytest.raises(AttributeError):
        rep.genus = 3


def test_extremal_report_consistency():
    for g in (2, 3, 7):
        rep = extremal_report(g)
        assert rep.genus == g
        assert rep.min_filling_length == min_filling_length(g)
        assert rep.polygon_perimeter == 2.0 * rep.min_filling_length
        n = 8 * g - 4
        assert abs(rep.polygon_side * n - rep.polygon_perimeter) <= 1e-9 * rep.polygon_perimeter
        assert set(rep.as_dict()) == {
            "genus", "min_filling_length", "polygon_side", "polygon_perimeter"
        }


def test_min_filling_length_monotone():
    values = [min_filling_length(g) for g in range(2, 101)]
    for v1, v2 in zip(values, values[1:]):
        assert v2 > v1


def test_kissing_lower_bound_values():
    assert kissing_lower_bound(2, min_filling_length(2)) == pytest.approx(1.0, rel=1e-12)
    assert rel_err(kissing_lower_bound(2, 1.0), MIN_LENGTH_ORACLE[2]) <= 1e-12
    with pytest.raises(DomainError):
        kissing_lower_bound(2, 0.0)
    with pytest.raises(DomainError):
        kissing_lower_bound(2, -1.0)


@pytest.mark.parametrize(
    "kernel, n, args",
    [
        (max_area, math.inf, ()),
        (max_angle, math.inf, ()),
        (perimeter_from_area, math.inf, (1.0,)),
        (max_area, 10**400, ()),
        (circumradius, 10**400, (1.0,)),
    ],
    ids=["max_area-inf", "max_angle-inf", "perimeter_from_area-inf", "max_area-10**400",
         "circumradius-10**400"],
)
def test_side_count_beyond_float_range_is_refused(kernel, n, args):
    # refused by name, not returned as inf or nan nor raised as an
    # OverflowError from float()
    with pytest.raises(DomainError, match="side count must be finite"):
        kernel(n, *args)


def test_largest_side_count_keeps_a_finite_area_bound():
    n = polygeom._MAX_SIDES
    assert math.isfinite(max_area(n)) and math.isfinite(max_angle(n))
    with pytest.raises(DomainError, match="side count must be finite"):
        max_area(math.nextafter(n, math.inf))


def test_acosh_argument_just_below_one_clamps_to_zero():
    # rounding may push a cosh value below 1 by up to ACOSH_CLAMP; past
    # that the argument is a bug, not rounding
    clamp = tolerances.ACOSH_CLAMP
    for x in (math.nextafter(1.0, 0.0), 1.0 - clamp / 2, 1.0 - clamp):
        assert polygeom._acosh_clamped(x) == 0.0
    assert polygeom._acosh_clamped(1.0) == 0.0
    with pytest.raises(DomainError, match="below 1 by more than"):
        polygeom._acosh_clamped(1.0 - 2 * clamp)


def test_domain_errors():
    with pytest.raises(DomainError):
        perimeter_from_area(2.5, 1.0)
    with pytest.raises(DomainError):
        perimeter_from_area(4, -0.5)
    with pytest.raises(DomainError):
        perimeter_from_area(4, max_area(4))
    with pytest.raises(DomainError):
        perimeter_from_angle(4, 0.0)
    with pytest.raises(DomainError):
        perimeter_from_angle(4, max_angle(4) + 1e-6)
    with pytest.raises(DomainError):
        # too few sides for a right angle: needs n >= 4
        perimeter_from_angle(3.5, math.pi / 2)
    with pytest.raises(DomainError):
        circumradius(4, max_angle(4) + 1e-6)
    with pytest.raises(DomainError):
        perimeter_derivative(4, 0.0)
    with pytest.raises(DomainError):
        area_from_angle(4, math.pi)
    with pytest.raises(DomainError):
        min_filling_length(1)
    with pytest.raises(DomainError):
        min_filling_length(2.5)
    with pytest.raises(DomainError):
        RegularPolygonSpec.from_angle(4, 2.0)
    for n in ("8", None, True, 8j):
        with pytest.raises(DomainError, match="side count must be a number"):
            max_area(n)


# The grid on which the perimeter line kernels are pinned bit for bit:
# side counts, and areas as fractions of the supremum (n-2)*pi.
PIN_SIDES = (3, 4, 5, 7.5, 8, 64, 1000)
PIN_FRACTIONS = (0.0, 1e-12, 1e-6, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 0.999999)
# sha256 of repr(records) over that grid, as the scalar kernels
# _perimeter_from_area, _perimeter_derivative and
# _perimeter_second_derivative gave it while they held the formulas
PINNED_RECORDS = {
    "_perimeters_from_area": "88d8b36b71da6ab57ba6d6ffa3713f72d89e603b3a78e2d6031d6ecd312d5fed",
    "_perimeter_derivatives": "1aca81ad9bc503a64af03acda3a99774057bfe538ad8cb299c4bcb6d657603f2",
    "_perimeter_second_derivatives":
        "16865f3f2c338a3405b36142957b9810584fc0c47f82296fdea653da1b6e5141",
}


def record(call):
    """repr of the value, or '!' with the type and message of the raise."""
    try:
        return repr(call())
    except Exception as exc:
        return f"!{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", sorted(PINNED_RECORDS))
def test_line_kernels_reproduce_the_pinned_scalar_kernels(name):
    line = getattr(polygeom, name)
    records = []
    for n in PIN_SIDES:
        n = float(n)
        areas = [t * polygeom._max_area(n) for t in PIN_FRACTIONS]
        points = [record(lambda: line(n, [area])[0]) for area in areas]
        values = [point for point in points if not point.startswith("!")]
        raised = [point for point in points if point.startswith("!")]
        # the whole line gives the values of its points ...
        kept = [area for area, point in zip(areas, points) if not point.startswith("!")]
        assert [repr(value) for value in line(n, kept)] == values
        # ... and raises as its first raising point does
        if raised:
            assert record(lambda: line(n, areas)) == raised[0]
        records += points
    assert hashlib.sha256(repr(records).encode()).hexdigest() == PINNED_RECORDS[name]
