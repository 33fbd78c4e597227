"""Tests for the isoperimetric machinery.

Frozen decimals were produced with mpmath at 50 digits (see
scripts/run_all_verifications.py for the recipe) and pasted here.
"""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillgeo import isoperim, polygeom
from fillgeo import tolerances as tol
from fillgeo.errors import DomainError, ValidationError
from fillgeo.isoperim import (
    EqualityClassification,
    GridSpec,
    IsoperimetricInstance,
    PolygonFamily,
    _df_dx,
    _f,
    check_instance,
    classify_equality,
    draw_instances,
    f,
    merge_sequence,
    random_instance,
    validate_instance,
    verify_example_3_12,
    verify_lemma_3_2,
    verify_lemma_3_3,
    verify_lemma_3_4,
    verify_merge_properties,
    verify_prop_3_5,
    verify_prop_3_6,
    verify_theorem_3_1,
)
from fillgeo.polygeom import (
    RegularPolygonSpec,
    _check_area,
    _perimeter_derivatives,
    _perimeter_second_derivatives,
    _perimeters_from_area,
    area_from_angle,
    perimeter_from_area,
    perimeter_second_derivative,
)
from fillgeo.report import CheckReport, json_text

# mpmath 50-digit oracle values for the counterexample instance
P6_OF_4_99 = 11.190174475172462452
P3_OF_0_01 = 0.456560749522328498
P5_OF_5 = 12.506292399049253568
EXAMPLE_MARGIN = 0.359557174354462619


def test_f_zero_at_x0_bitwise():
    for n in (5, 8, 12, 40):
        for a in (0.0, 1.0, math.pi, 4.0):
            assert f(n, a, 0.0) == 0.0


def test_f_positive_samples():
    assert f(12, 3.0 * math.pi + 1.0, 1.0) > 0.0
    assert f(5, 2.0, 0.5) > 0.0
    # x = a collapses the remainder: f = P_4(a) - P_6(a)
    value = f(6, math.pi, math.pi)
    expect = perimeter_from_area(4, math.pi) - perimeter_from_area(6, math.pi)
    assert value == pytest.approx(expect, rel=1e-12)
    assert value > 0.0


def test_f_domain():
    with pytest.raises(DomainError):
        f(8, 1.0, 1.5)
    with pytest.raises(DomainError):
        f(8, 1.0, -0.1)


def df_dx(n, a, x):
    """The partial derivative of f in x through the row kernel the Lemma
    3.2 sweep evaluates, as a one-point row, after the checks of both
    areas that the sweep makes once per n: 0 < x and 0 < a - x."""
    _check_area(4.0, x, positive=True)
    return _df_dx(_check_area(n, a - x, positive=True), a, [x],
                  _perimeter_derivatives(4.0, [x]))[0]


def second_derivative_all_negative(n, upper, samples):
    """Whether P'' stays negative over midpoints of (0, upper)."""
    return all(
        perimeter_second_derivative(n, upper * (i + 0.5) / samples) < 0.0
        for i in range(samples)
    )


def test_df_dx_positive_and_diverges_near_zero():
    assert df_dx(12, 3.0 * math.pi, 1.0) > 0.0
    # P_4 has a square-root cusp at zero area, so the derivative blows up
    assert df_dx(12, 3.0 * math.pi, 1e-8) > 1e3
    assert df_dx(30, 6.0 * math.pi, 1e-8) > 1e3


def test_df_dx_matches_finite_differences():
    rng = random.Random(7)
    h = 1e-7
    for _ in range(100):
        n = rng.randint(8, 64)
        a_hi = (n / 2.0 - 2.0) * math.pi
        a = rng.uniform(1.5 * math.pi, a_hi)
        x = rng.uniform(h * 10, min(a - math.pi, 2.0 * math.pi) - h * 10)
        fd = (f(n, a, x + h) - f(n, a, x - h)) / (2.0 * h)
        exact = df_dx(n, a, x)
        assert fd == pytest.approx(exact, rel=1e-5, abs=1e-7)


def test_rows_match_their_points():
    # a sweep row gives, bit for bit, what its points give one at a time
    n, a = 12.0, 3.0 * math.pi
    xs = [2.0 * math.pi * j / 16 for j in range(1, 16)]
    assert _f(n, a, xs, _perimeters_from_area(4.0, xs)) == [f(12, a, x) for x in xs]
    assert _df_dx(n, a, xs, _perimeter_derivatives(4.0, xs)) == [
        df_dx(12, a, x) for x in xs
    ]
    assert _f(n, a, [0.0], [0.0]) == [0.0]


def test_df_dx_domain():
    with pytest.raises(DomainError):
        df_dx(8, 1.0, 0.0)
    with pytest.raises(DomainError):
        df_dx(8, 1.0, 1.0)


def test_gridspec_validates():
    with pytest.raises(ValidationError):
        GridSpec(steps=1)
    with pytest.raises(ValidationError):
        GridSpec(samples=0)
    # the sweeps would fail later with a bare TypeError in range()
    for density in ({"samples": 1e4}, {"steps": 2.5}, {"samples": True}):
        with pytest.raises(ValidationError, match="must be an integer"):
            GridSpec(**density)


def test_lemma_3_2_reduced_grid():
    report = verify_lemma_3_2(GridSpec(steps=8))
    assert report.passed
    assert report.min_value > 0.0
    assert report.details["constant"] == pytest.approx(1.29521, abs=5e-6)
    assert report.details["constant"] > 1.0


def test_lemma_3_3_sign_change():
    for n in (4, 6, 12, 20):
        report = verify_lemma_3_3(n, GridSpec(samples=2000))
        assert report.passed, report.text()
        assert 0.0 < report.details["x_star"] < (n - 2) * math.pi
        assert report.details["sign_mismatches"] == 0
        assert report.details["first_mismatch_x"] is None


def test_lemma_3_3_holds_at_a_billion_sides():
    # x* ~ 1.1e5 lies left of the first default-density sample, 1.6e5
    report = verify_lemma_3_3(10**9)
    assert report.passed, report.text()
    assert report.details["sign_mismatches"] == 0


def test_lemma_3_3_domain():
    # an integer past the float range is refused before any arithmetic on it
    for bad in (3, 4.5, 4.0, True, "5", 10**400):
        with pytest.raises(DomainError):
            verify_lemma_3_3(bad)


def test_restricted_concavity_small_n():
    # over the shorter window (0, (n/2-2)*pi) the second derivative
    # never goes positive for pentagons and hexagons
    for n in (5, 6):
        upper = (n / 2.0 - 2.0) * math.pi
        assert second_derivative_all_negative(n, upper, samples=2000)


def test_lemma_3_4_documented_range_decreasing():
    for n in (7, 8, 9, 10):
        report = verify_lemma_3_4(n, GridSpec(samples=2000))
        assert report.passed, report.text()
        assert report.details["decreasing"]
        assert report.details["auxiliary_constant"] > 0.0


def test_lemma_3_4_small_n_decreasing():
    for n in (5, 6):
        report = verify_lemma_3_4(n, GridSpec(samples=2000))
        assert report.passed
        assert report.details["decreasing"]


def test_lemma_3_4_large_n_violation():
    report = verify_lemma_3_4(30, GridSpec(samples=2000))
    assert report.passed
    assert not report.details["decreasing"]
    assert report.details["violation_near_x"] is not None
    # the failure window sits near the right end of the domain
    assert report.details["violation_near_x"] > 30.0


def test_lemma_3_4_undocumented_band():
    report = verify_lemma_3_4(15, GridSpec(samples=500))
    assert report.passed
    assert report.details["expected"] == "undocumented"


def test_lemma_3_4_domain():
    for bad in (4, 10**400):
        with pytest.raises(DomainError):
            verify_lemma_3_4(bad)


def test_prop_3_5_reduced():
    report = verify_prop_3_5(GridSpec(samples=400))
    assert report.passed, report.text()
    assert report.details["concavity_worst_second_difference"] < 0.0
    assert report.details["decreasing_min_drop"] > 0.0
    assert report.details["gap_min"] > 0.0
    assert report.details["gap_min_rise"] > 0.0


def test_prop_3_6_reduced():
    report = verify_prop_3_6(GridSpec(steps=16))
    assert report.passed, report.text()
    assert report.min_value >= -1e-9
    assert report.details["near_zero_off_line"] == 0
    assert report.details["exact_zero_at_x0"]


def test_prop_3_6_fails_on_a_zero_off_the_x0_line(monkeypatch):
    # no valid row has one; a kernel that is zero everywhere stands in
    monkeypatch.setattr(isoperim, "_f", lambda n, a, xs, squares: [0.0] * len(xs))
    report = verify_prop_3_6(GridSpec(steps=4))
    assert not report.passed
    assert report.details["near_zero_off_line"] > 0
    assert report.details["exact_zero_at_x0"]


def test_prop_3_6_fails_on_a_nonzero_at_x0(monkeypatch):
    row = isoperim._f
    monkeypatch.setattr(isoperim, "_f", lambda *args: [v + 1e-300 for v in row(*args)])
    report = verify_prop_3_6(GridSpec(steps=4))
    assert not report.passed
    assert report.details["near_zero_off_line"] == 0
    assert not report.details["exact_zero_at_x0"]


def reference_lemma_3_3(n: int, grid: GridSpec) -> CheckReport:
    """verify_lemma_3_3 as it was while it searched its samples for the
    sign change, cross-checking each against the sign criterion, which
    it computed in a pass of its own with its own sin(w) and cos(w)."""
    samples = grid.samples
    span = (n - 2.0) * math.pi
    side = _check_area(n, span * 0.5 / samples, positive=True)
    xs = [span * (i + 0.5) / samples for i in range(samples)]
    values = _perimeter_second_derivatives(side, xs)
    signs = [value > 0.0 for value in values]
    c2 = math.cos(math.pi / n) ** 2
    two_n = 2.0 * n
    crits = [
        c2 - math.sin(w) ** 2 * (1.0 + math.cos(w) ** 2)
        for w in [(span - x) / two_n for x in xs]
    ]
    criterion_mismatches = sum(
        1
        for crit, value, sign in zip(crits, values, signs)
        if (crit > 0) != sign
        and abs(crit) > 1e-12
        and abs(value) > tol.SECOND_DERIVATIVE_TOL
    )
    change_xs = [x for x, sign, prev in zip(xs[1:], signs[1:], signs) if sign != prev]
    changes = len(change_xs)
    passed = changes == 1 and not signs[0] and signs[-1] and criterion_mismatches == 0
    return CheckReport(
        check_id=f"lemma_3_3_n{n}",
        passed=passed,
        domain=f"x in (0, {span:.6g}), n={n}",
        grid_size=samples,
        min_value=None,
        argmin=None,
        tolerance=0.0,
        details={
            "sign_changes": changes,
            "first_negative": not signs[0],
            "last_positive": signs[-1],
            "change_near_x": change_xs[0] if change_xs else None,
            "criterion_mismatches": criterion_mismatches,
        },
    )


def reference_prop_3_6(grid: GridSpec) -> CheckReport:
    """verify_prop_3_6 as it was while every grid row evaluated its own
    P_4 line."""
    steps = grid.steps
    min_value = math.inf
    argmin = None
    count = 0
    near_zero_off_line = 0
    exact_zero_line = True
    for n in range(5, 41):
        a_hi = (n / 2.0 - 2.0) * math.pi
        side = _check_area(n, a_hi)
        for i in range(steps + 1):
            a = a_hi * i / steps
            x_cap = min(a, 2.0 * math.pi * (1.0 - tol.X_CAP_MARGIN))
            step = x_cap / steps if x_cap > 0.0 else 1.0
            xs = [x_cap * j / steps for j in range(steps + 1 if x_cap > 0.0 else 1)]
            count += len(xs)
            for x, value in zip(xs, _f(side, a, xs, _perimeters_from_area(4.0, xs))):
                if x == 0.0 and value != 0.0:
                    exact_zero_line = False
                if value < min_value:
                    min_value = value
                    argmin = (n, a, x)
                if abs(value) < tol.INEQ_TOL and x >= step:
                    near_zero_off_line += 1
    return CheckReport(
        check_id="prop_3_6",
        passed=min_value >= -tol.INEQ_TOL and near_zero_off_line == 0 and exact_zero_line,
        domain="n in {5..40}, a in [0, (n/2-2)pi], x in [0, min(a, 2pi)]",
        grid_size=count,
        min_value=min_value,
        argmin=argmin,
        tolerance=tol.INEQ_TOL,
        details={
            "near_zero_off_line": near_zero_off_line,
            "exact_zero_at_x0": exact_zero_line,
        },
    )


def test_lemma_3_3_matches_its_separate_criterion_pass():
    """The old sampled search finds one sign change, agreeing with the
    criterion everywhere, at the first midpoint sample past x*."""
    cases = [(n, GridSpec()) for n in range(4, 21)] + [(64, GridSpec(samples=3001))]
    for n, grid in cases:
        report = verify_lemma_3_3(n, grid)
        reference = reference_lemma_3_3(n, grid)
        assert report.passed and reference.passed, n
        assert reference.details["sign_changes"] == 1, n
        assert reference.details["criterion_mismatches"] == 0, n
        span = (n - 2.0) * math.pi
        x_star = report.details["x_star"]
        first_past = next(
            x for x in (span * (i + 0.5) / grid.samples for i in range(grid.samples))
            if x > x_star
        )
        assert reference.details["change_near_x"] == first_past, n


@pytest.mark.parametrize("steps", [13, 40])
def test_prop_3_6_matches_a_p4_line_per_row(steps):
    grid = GridSpec(steps=steps)
    assert verify_prop_3_6(grid) == reference_prop_3_6(grid)


def test_sign_criterion_matches_mpmath_second_derivative():
    """P'' as mpmath differentiates the perimeter at 40 digits has the
    sign of x - x*, with x* the closed form verify_lemma_3_3 computes,
    at samples clear of x*."""
    mp = mpmath.mp.clone()
    mp.dps = 40
    checked = {False: 0, True: 0}
    for n in range(4, 21, 4):
        span = (n - 2.0) * math.pi
        x_star = verify_lemma_3_3(n, GridSpec(samples=isoperim.MIN_SAMPLES)).details["x_star"]
        c = mp.cos(mp.pi / n)

        def perimeter(x):
            return 2 * n * mp.acosh(c / mp.cos((2 * mp.pi + x) / (2 * n)))

        for x in (span * (i + 0.5) / 48 for i in range(48)):
            if abs(x - x_star) < 1e-6 * span:
                continue
            second = mp.diff(perimeter, mp.mpf(x), 2)
            assert (second > 0) == (x > x_star), (n, x, x_star, second)
            checked[x > x_star] += 1
    assert min(checked.values()) >= 50, checked


def test_family_helpers():
    fam = PolygonFamily(((6, 2.0), (6, 2.0 * math.pi - 2.0)))
    assert fam.k == 2
    assert fam.total_area() == pytest.approx(2.0 * math.pi)
    assert fam.merged_sides() == 8
    assert fam.is_sorted_by_angle()
    rev = PolygonFamily(tuple(reversed(fam.items)))
    assert not rev.is_sorted_by_angle()
    assert PolygonFamily.by_angle(rev.items).items == fam.items
    assert PolygonFamily.by_angle(rev.items).angles == fam.angles


def test_check_instance_k1_equality():
    inst = IsoperimetricInstance(family=PolygonFamily(((8, 3.0),)))
    assert inst.target == RegularPolygonSpec.from_area(8, 3.0)
    assert inst.target is inst.target, "the target is derived once per instance"
    result = check_instance(inst)
    assert set(result) == {"lhs", "rhs", "holds", "equality"}
    assert result["holds"]
    assert result["equality"]
    assert result["lhs"] == result["rhs"]
    cls = classify_equality(inst)
    assert cls.expected_shape
    assert cls.nondegenerate_count == 1


def test_check_instance_k2_strict():
    area = area_from_angle(8, math.pi / 2.0)
    inst = IsoperimetricInstance(family=PolygonFamily(((6, 2.0), (6, area - 2.0))))
    result = check_instance(inst)
    assert result["holds"]
    assert not result["equality"]
    assert result["rhs"] > result["lhs"]
    # two nondegenerate members: not the shape equality requires
    assert classify_equality(inst) == (False, 2)


def test_validate_rejects_bad_instances():
    # family total 5pi exceeds the supremum 4pi of hexagon areas:
    # no target polygon exists, and the constructor refuses the instance
    no_target = PolygonFamily(((5, 2.5 * math.pi), (5, 2.5 * math.pi)))
    with pytest.raises(ValidationError, match="no target polygon"):
        validate_instance(IsoperimetricInstance(no_target))
    with pytest.raises(ValidationError, match="no target polygon"):
        check_instance(IsoperimetricInstance(no_target))
    # triangle member
    tri_area = area_from_angle(7, math.pi / 2.0)
    with pytest.raises(ValidationError):
        check_instance(
            IsoperimetricInstance(PolygonFamily(((3, 0.5), (8, tri_area - 0.5))))
        )
    # sharp target
    with pytest.raises(ValidationError):
        check_instance(IsoperimetricInstance(PolygonFamily(((5, 5.0),))))
    # non-integer member side count
    with pytest.raises(ValidationError):
        check_instance(IsoperimetricInstance(PolygonFamily(((8.0, 3.0),))))
    with pytest.raises(ValidationError, match="at least one polygon"):
        IsoperimetricInstance(PolygonFamily(()))
    # member areas outside [0, (m - 2) pi)
    for member in ((8, -1.0), (5, 3.0 * math.pi)):
        with pytest.raises(ValidationError, match="member area"):
            IsoperimetricInstance(PolygonFamily((member, (8, 1.0))))


def test_merge_sequence_k2():
    area = area_from_angle(8, math.pi / 2.0)
    inst = IsoperimetricInstance(family=PolygonFamily(((6, 2.0), (6, area - 2.0))))
    steps = merge_sequence(inst)
    assert len(steps) == 2
    assert steps[0].n == 6
    assert steps[0].area == pytest.approx(2.0)
    assert steps[1].n == 8
    assert steps[1].area == pytest.approx(area, rel=1e-12)
    assert steps[1].theta == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert all(step.theta >= math.pi / 2.0 - 1e-12 for step in steps)


def test_merge_sequence_requires_sorted():
    area = area_from_angle(8, math.pi / 2.0)
    inst = IsoperimetricInstance(family=PolygonFamily(((6, area - 2.0), (6, 2.0))))
    with pytest.raises(ValidationError):
        merge_sequence(inst)


def test_merge_sequence_refuses_a_step_outside_the_domain(monkeypatch):
    # the steps of a valid instance stay in the domain; a refusing
    # polygon constructor stands in for one that leaves it
    area = area_from_angle(8, math.pi / 2.0)
    inst = IsoperimetricInstance(family=PolygonFamily(((6, 2.0), (6, area - 2.0))))

    class Refusing:
        @staticmethod
        def from_area(n, a):
            raise DomainError("stub refusal")

    monkeypatch.setattr(isoperim, "RegularPolygonSpec", Refusing)
    with pytest.raises(ValidationError, match="merge step 1 leaves the polygon domain: stub"):
        merge_sequence(inst)


def test_classify_equality_fully_degenerate():
    inst = IsoperimetricInstance(family=PolygonFamily(((4, 0.0), (4, 0.0))))
    assert inst.target == RegularPolygonSpec.from_area(4, 0.0)
    result = check_instance(inst)
    assert result["equality"]
    cls = classify_equality(inst)
    assert cls.expected_shape
    assert cls.nondegenerate_count == 0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150)
def test_random_instances_hold(seed):
    inst = random_instance(random.Random(seed))
    result = check_instance(inst)
    assert result["holds"]
    if result["equality"]:
        assert classify_equality(inst).expected_shape


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100)
def test_random_merge_angles(seed):
    inst = random_instance(random.Random(seed))
    steps = merge_sequence(inst)
    assert len(steps) == inst.family.k
    for step in steps:
        assert step.theta >= math.pi / 2.0 - 1e-12
    last = steps[-1]
    assert int(last.n) == int(inst.target.n)
    assert last.area == pytest.approx(inst.target.area, abs=1e-12, rel=1e-12)


def test_theorem_3_1_reduced():
    report = verify_theorem_3_1(draw_instances(500, seed=0))
    assert report.passed, report.text()
    assert report.min_value >= -1e-9
    assert report.details["holds_failures"] == 0
    assert report.details["classifier_failures"] == 0


def test_merge_properties_reduced():
    report = verify_merge_properties(draw_instances(500, seed=0))
    assert report.passed, report.text()
    assert report.details["merge_angle_failures"] == 0
    assert report.details["final_step_mismatches"] == 0
    assert report.details["member_angle_bound_failures"] == 0


@pytest.mark.parametrize("result, expected_shape, counter", [
    ({"lhs": 1.0, "rhs": 0.5, "holds": False, "equality": False}, True, "holds_failures"),
    ({"lhs": 1.0, "rhs": 1.0, "holds": True, "equality": True}, False, "classifier_failures"),
], ids=["holds", "classifier"])
def test_theorem_3_1_counts_each_failure(monkeypatch, result, expected_shape, counter):
    # valid instances satisfy the inequality; stubbed checks stand in
    monkeypatch.setattr(isoperim, "check_instance", lambda inst: result)
    monkeypatch.setattr(isoperim, "classify_equality",
                        lambda inst: EqualityClassification(expected_shape, 1))
    report = verify_theorem_3_1(draw_instances(3, seed=0))
    assert not report.passed
    failures = {key: report.details[key] for key in ("holds_failures", "classifier_failures")}
    assert failures == {"holds_failures": 0, "classifier_failures": 0, counter: 3}


@pytest.mark.parametrize("case, counter", [
    ("sharp step", "merge_angle_failures"),
    ("wrong final sides", "final_step_mismatches"),
    ("no right angle", "member_angle_bound_failures"),
    ("member above target", "member_angle_bound_failures"),
])
def test_merge_properties_counts_each_failure(monkeypatch, case, counter):
    # valid instances pass every bound; a stubbed merge sequence or a
    # replaced angle tuple breaks one
    draw = draw_instances(1, seed=0)
    inst = draw.instances[0]
    steps = list(merge_sequence(inst))
    if case == "sharp step":
        steps[0] = steps[0]._replace(theta=math.pi / 2.0 - 0.1)
    elif case == "wrong final sides":
        steps[-1] = steps[-1]._replace(n=steps[-1].n + 1)
    elif case == "no right angle":
        inst.family._angles = (math.pi / 2.0 - 0.1,) * inst.family.k
    else:
        inst.family._angles = (inst.target.theta + 0.1,) * inst.family.k
    monkeypatch.setattr(isoperim, "merge_sequence", lambda inst: tuple(steps))
    report = verify_merge_properties(draw)
    assert not report.passed
    counters = ("merge_angle_failures", "final_step_mismatches", "member_angle_bound_failures")
    assert {key: report.details[key] for key in counters} == {
        "merge_angle_failures": 0, "final_step_mismatches": 0,
        "member_angle_bound_failures": 0, counter: 1}


@pytest.mark.parametrize("verify", [verify_theorem_3_1, verify_merge_properties])
@pytest.mark.parametrize("count", [0, -3, 2.5, True])
def test_instance_sweeps_reject_empty_counts(verify, count):
    # the draw both sweeps take refuses the count before either runs;
    # True would otherwise draw one instance, 2.5 fail in range()
    with pytest.raises(DomainError, match="instance count"):
        verify(draw_instances(count, seed=0))


def test_each_drawn_instance_is_validated_once(monkeypatch):
    # the constructor checks the target's side count once per instance,
    # each merge step checks its own polygon, and the draw, the member
    # checks, the angles and the perimeters go through unchecked kernels
    calls = 0
    check_sides = polygeom._check_sides

    def counted(n):
        nonlocal calls
        calls += 1
        return check_sides(n)

    monkeypatch.setattr(polygeom, "_check_sides", counted)
    draw = draw_instances(300, 3)
    verify_theorem_3_1(draw)
    verify_merge_properties(draw)
    members = sum(inst.family.k for inst in draw.instances)
    assert calls <= draw.count + members


def test_example_instance_strict_rejected():
    with pytest.raises(ValidationError):
        IsoperimetricInstance(PolygonFamily(((6, 4.99), (3, 0.01))))


def test_example_frozen_decimals():
    assert perimeter_from_area(6, 4.99) == pytest.approx(P6_OF_4_99, rel=1e-12)
    assert perimeter_from_area(3, 0.01) == pytest.approx(P3_OF_0_01, rel=1e-12)
    assert perimeter_from_area(5, 5.0) == pytest.approx(P5_OF_5, rel=1e-12)
    margin = P5_OF_5 - (P6_OF_4_99 + P3_OF_0_01 + 0.5)
    assert margin == pytest.approx(EXAMPLE_MARGIN, rel=1e-9)


def test_example_report():
    report = verify_example_3_12()
    assert report.passed, report.text()
    assert report.min_value == pytest.approx(EXAMPLE_MARGIN, rel=1e-9)
    assert report.details["strict_rejected"]
    assert not report.details["permissive_holds"]
    assert report.details["target_theta"] < math.pi / 2.0


def test_example_report_fails_when_the_family_is_accepted(monkeypatch):
    monkeypatch.setattr(isoperim, "IsoperimetricInstance", lambda family: None)
    report = verify_example_3_12()
    assert not report.passed
    assert not report.details["strict_rejected"]


def test_report_text_round_trip():
    report = verify_lemma_3_3(6, GridSpec(samples=500))
    text = report.text()
    assert "check=lemma_3_3_n6" in text
    assert "passed=true" in text
    data = report.as_dict()
    assert data["check_id"] == "lemma_3_3_n6"
    assert '"check_id": "lemma_3_3_n6"' in json_text(data)
