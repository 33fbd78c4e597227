"""Acceptance gate: one test per acceptance criterion.

Each test prints a single [PASS]/[FAIL] line (visible with -s, or in
the failure report) and then asserts the criterion at its stated
tolerance and runtime budget.  Criterion 10 is asserted exactly as
stated; at the sampled genera the inequality does not hold (the bound
only overtakes the stated threshold at astronomically larger genus),
so that test is expected to fail and is kept failing on purpose
rather than weakened.
"""

import json
import math
import os
import time

from fillgeo import isoperim, polygeom, reducer, surfmap
from fillgeo.errors import ValidationError

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# Half-perimeters of the right-angled regular (8g-4)-gon, g = 2..10,
# mpmath dps=50 (see scripts/run_all_verifications.py for the recipe).
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

# mpmath dps=50 oracle values for the hypothesis-failure instance.
P6_OF_4_99 = 11.190174475172462452
P3_OF_0_01 = 0.456560749522328498
P5_OF_5 = 12.506292399049253568


def line(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num}: {detail}")


def test_criterion_01_minimal_lengths_match_oracle():
    start = time.perf_counter()
    worst = 0.0
    for g, expected in MIN_LENGTH_ORACLE.items():
        got = polygeom.min_filling_length(g)
        worst = max(worst, abs(got - expected) / expected)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 0.1
    line(1, ok, f"g=2..10 worst rel err {worst:.3e}, {elapsed:.3f}s")
    assert worst <= 1e-12
    assert elapsed < 0.1


def test_criterion_02_hypothesis_failure_instance():
    start = time.perf_counter()
    p6 = polygeom.perimeter_from_area(6, 4.99)
    p3 = polygeom.perimeter_from_area(3, 0.01)
    p5 = polygeom.perimeter_from_area(5, 5.0)
    lhs = p6 + p3 + 0.5
    elapsed = time.perf_counter() - start
    ok = lhs < p5 - 1e-9 and elapsed < 0.1
    line(2, ok, f"lhs {lhs!r} < rhs {p5!r}, {elapsed:.3f}s")
    assert abs(p6 - P6_OF_4_99) / P6_OF_4_99 <= 1e-9
    assert abs(p3 - P3_OF_0_01) / P3_OF_0_01 <= 1e-9
    assert abs(p5 - P5_OF_5) / P5_OF_5 <= 1e-9
    assert lhs < p5 - 1e-9
    assert elapsed < 0.1


def test_criterion_03_gradient_positive_sweep():
    start = time.perf_counter()
    report = isoperim.verify_lemma_3_2()
    elapsed = time.perf_counter() - start
    constant = (3.0 + 2.0 * math.sqrt(2.0)) * (4.0 / 9.0) * 0.5
    ok = report.passed and report.min_value > 0.0 and elapsed < 10.0
    line(3, ok,
         f"min df_dx {report.min_value:.6g} at {report.argmin}, "
         f"constant {constant!r}, {elapsed:.2f}s")
    assert report.passed
    assert report.min_value > 0.0
    assert abs(constant - 1.29521) <= 5e-6
    assert elapsed < 10.0


def test_criterion_04_second_derivative_sign_pattern():
    start = time.perf_counter()
    reports = [isoperim.verify_lemma_3_3(n) for n in range(4, 21)]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 5.0
    bad = [r.check_id for r in reports if not r.passed]
    line(4, ok, f"n=4..20 one sign change each, failures {bad}, {elapsed:.2f}s")
    assert all(r.passed for r in reports), bad
    assert elapsed < 5.0


def test_criterion_05_perimeter_ratio_monotonicity():
    start = time.perf_counter()
    small = [isoperim.verify_lemma_3_4(n) for n in (7, 8, 9, 10)]
    large = isoperim.verify_lemma_3_4(30)
    elapsed = time.perf_counter() - start
    violation_found = not large.details["decreasing"]
    ok = all(r.passed for r in small) and violation_found and elapsed < 5.0
    line(5, ok,
         f"n=7..10 decreasing, n=30 violation near "
         f"x={large.details['violation_near_x']}, {elapsed:.2f}s")
    assert all(r.passed for r in small)
    assert large.passed
    assert violation_found
    assert elapsed < 5.0


def test_criterion_06_randomized_inequality_suite():
    start = time.perf_counter()
    report = isoperim.verify_theorem_3_1(isoperim.draw_instances(10000, seed=0))
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 30.0
    line(6, ok,
         f"10^4 instances, worst slack {report.min_value:.6g}, "
         f"equalities {report.details['equalities']}, {elapsed:.2f}s")
    assert report.passed
    assert report.min_value >= -1e-9
    assert elapsed < 30.0


def test_criterion_07_merge_sequence_properties():
    start = time.perf_counter()
    report = isoperim.verify_merge_properties(isoperim.draw_instances(10000, seed=0))
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 30.0
    line(7, ok, f"10^4 instances, worst angle slack {report.min_value:.6g}, "
                f"{elapsed:.2f}s")
    assert report.passed
    assert elapsed < 30.0


def test_criterion_08_canonical_gluings():
    start = time.perf_counter()
    reports = [surfmap.verify_canonical(g) for g in range(2, 51)]
    elapsed = time.perf_counter() - start
    bad = [r.check_id for r in reports if not r.passed]
    ok = not bad and elapsed < 1.0
    line(8, ok, f"g=2..50 all verified, failures {bad}, {elapsed:.3f}s")
    assert not bad
    assert elapsed < 1.0


def test_criterion_09_reduction_certificates():
    corpus = [
        ("canonical_g2.json", 2),
        ("canonical_g3.json", 3),
        ("canonical_g4.json", 4),
        ("canonical_g5.json", 5),
        ("triangle_a.json", 2),
        ("triangle_b.json", 2),
        ("triangle_c.json", 2),
        ("sixvalent_a.json", 2),
        ("sixvalent_b.json", 2),
    ]
    start = time.perf_counter()
    problems = []
    for name, genus in corpus:
        with open(os.path.join(DATA_DIR, name)) as handle:
            data = json.load(handle)
        cert = reducer.reduce(reducer.validate_input(data, genus))
        if not cert.passed:
            problems.append((name, "certificate failed"))
            continue
        if any(m < 5 for m in cert.face_degrees):
            problems.append((name, f"face degrees {cert.face_degrees}"))
        if sum(m - 4 for m in cert.face_degrees) != 8 * genus - 8:
            problems.append((name, "degree sum off"))
        reduced = surfmap.from_interchange(cert.reduced_map)
        oracle = surfmap.surface_report(reduced)
        if tuple(oracle["face_effective_degrees"]) != cert.face_degrees:
            problems.append((name, "face-tracing oracle disagrees"))
        if oracle["genus"] != genus:
            problems.append((name, "reduced map genus off"))

    rejected = []
    for name in ("bigon.json", "torus_claim.json"):
        with open(os.path.join(DATA_DIR, name)) as handle:
            data = json.load(handle)
        try:
            reducer.validate_input(data, 2)
        except ValidationError:
            rejected.append(name)
    elapsed = time.perf_counter() - start
    ok = not problems and len(rejected) == 2 and elapsed < 5.0
    line(9, ok,
         f"{len(corpus)} fixtures certified, {len(rejected)}/2 invalid "
         f"rejected, problems {problems}, {elapsed:.2f}s")
    assert not problems
    assert len(rejected) == 2
    assert elapsed < 5.0


def test_criterion_10_kissing_bound_at_large_genus():
    # Asserted exactly as stated.  The ratio lhs/rhs is below 1 at all
    # three sampled genera (about 0.88, 0.91, 0.92) and only crosses 1
    # near log10(g) ~ 3730, so this criterion fails honestly; see
    # scripts/kissing_threshold.py for the crossover computation.
    ratios = {}
    for g in (10**4, 10**5, 10**6):
        lhs = polygeom.kissing_lower_bound(g, 2.0 * math.log(g) + 2.409)
        rhs = 3.525 * g / math.log(g)
        ratios[g] = lhs / rhs
    ok = all(r >= 1.0 for r in ratios.values())
    line(10, ok, "lhs/rhs " + ", ".join(
        f"g=1e{int(math.log10(g))}: {r:.10f}" for g, r in ratios.items()))
    assert all(r >= 1.0 for r in ratios.values()), ratios
