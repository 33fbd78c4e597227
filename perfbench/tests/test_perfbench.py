"""Tests of the benchmark's own parts.

    python -m pytest perfbench/tests
"""

import json
import pathlib
import random
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))

import check  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def fillgeo():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "scripts"))
    import fillgeo.reducer
    import fillgeo.surfmap
    import make_reducer_fixtures

    return fillgeo, make_reducer_fixtures


def test_generator_reproduces_fixture_script_draws(fillgeo):
    _, fixtures = fillgeo
    reference = fixtures.random_map(random.Random(397), [6, 4, 4, 4, 4])
    item = corpus.MapInput((6, 4, 4, 4, 4), 397)
    assert item.alpha == list(reference.alpha)
    assert item.sigma == list(reference.sigma)
    assert item.genus == 2


def test_every_reproducer_is_accepted_at_its_roadmap_genus():
    genera = [corpus.MapInput(v, s).genus for v, s in corpus.REPRODUCERS]
    assert genera == [2, 3, 3, 3, 3, 3, 3, 4, 3, 4, 3, 4]


def test_same_seed_same_inputs():
    first = [m.interchange() for m in corpus.mixed(5, 20)]
    assert first == [m.interchange() for m in corpus.mixed(5, 20)]
    assert first != [m.interchange() for m in corpus.mixed(6, 20)]


def passing_certificate(fillgeo):
    package, _ = fillgeo
    data = json.loads((ROOT / "tests" / "data" / "triangle_a.json").read_text())
    filling = package.reducer.validate_input(data, data["genus"])
    cert = json.loads(package.reducer.reduce(filling).to_json())
    assert cert["passed"]
    return cert, data["genus"]


def test_checker_accepts_a_passing_certificate(fillgeo):
    cert, genus = passing_certificate(fillgeo)
    assert check.check_certificate(cert, genus) == []


def test_checker_rejects_an_altered_face_degree(fillgeo):
    cert, genus = passing_certificate(fillgeo)
    cert["face_degrees"][0] += 1
    assert check.check_certificate(cert, genus)


def canonical_map(fillgeo, g):
    package, _ = fillgeo
    surfmap = package.surfmap
    return surfmap.to_interchange(surfmap.build_map(surfmap.canonical_word(g)))


def test_checker_accepts_the_canonical_map(fillgeo):
    assert check.check_canonical_map(canonical_map(fillgeo, 3), 3) == []


@pytest.mark.parametrize("alter", ["overwrite", "transpose"])
def test_checker_rejects_an_altered_sigma(fillgeo, alter):
    data = canonical_map(fillgeo, 3)
    sigma = data["sigma"]
    if alter == "overwrite":
        sigma[0] = sigma[1]
    else:
        sigma[0], sigma[1] = sigma[1], sigma[0]
    assert check.check_canonical_map(data, 3)


@pytest.mark.parametrize("g", [2, 3, 50, 8000])
def test_length_closed_form_agrees_with_polygeom(fillgeo, g):
    from fillgeo.polygeom import min_filling_length

    expected = min_filling_length(g)
    assert abs(check.min_length(g) - expected) <= check.LENGTH_REL_TOL * expected


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping, covering
    # [1, 6]) and [8, 9]; the grandchild [2, 4] belongs to the second child
    spans = [
        ["root", 0.0, 10.0, None, None],
        ["a", 1.0, 3.0, 0, None],
        ["b", 2.0, 6.0, 0, None],
        ["c", 2.0, 4.0, 2, None],
        ["d", 8.0, 9.0, 0, None],
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 2.0, 2.0, 1.0]


def test_tracer_records_nesting_and_restores_originals(fillgeo):
    package, _ = fillgeo
    surfmap = package.surfmap
    original = surfmap.build_map
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert surfmap.build_map is not original
        surfmap.verify_canonical(2)
    finally:
        restore()
    assert surfmap.build_map is original
    parent_name = {
        s[tracing.NAME]: None if s[tracing.PARENT] is None else tracer.spans[s[tracing.PARENT]][tracing.NAME]
        for s in tracer.spans
    }
    assert parent_name == {
        "surfmap.verify_canonical": None,
        "surfmap.build_map": "surfmap.verify_canonical",
        "surfmap.surface_report": "surfmap.verify_canonical",
        "surfmap.trace_curve": "surfmap.surface_report",
    }
    assert tracer.counts["polygeom.calls.side_length"] == 1
    assert tracer.counts["within:surfmap.verify_canonical"] == 2


def test_ops_count_once_and_a_rejected_map_is_neither_ok_nor_correct():
    import worker

    def op(key):
        item = corpus.MapInput((6, 4, 4, 4, 4), 397)
        return worker.Op(key, ["reduce"], lambda out: [], reduce_input=item)

    good, refused = op("good"), op("refused")
    passes = [
        [worker.Result(good, 0, None, 0.1, "", ""), worker.Result(refused, 2, None, 0.1, "", "no")]
        for _ in range(3)
    ]
    metrics, _ = worker.end_to_end("reduce-mixed", passes)
    assert metrics["ok_ratio"] == 0.5
    assert metrics["fail_ratio"] == 0.0
    assert metrics["cal_wall_s"] == pytest.approx(0.2)
    assert list(worker.by_op(passes)) == ["good", "refused"]
    assert passes[0][1].wrong and not passes[0][0].wrong


def test_every_op_is_scaled_by_the_reference_loop_around_it():
    import calib
    import worker

    assert calib.scaled(2.0, calib.REFERENCE_S, calib.REFERENCE_S) == pytest.approx(2.0)
    assert calib.scaled(2.0, 2 * calib.REFERENCE_S, 2 * calib.REFERENCE_S) == pytest.approx(1.0)
    ops = [worker.Op(key, [key], lambda out: []) for key in ("a", "b", "c")]
    results = worker.run_pass(lambda argv: 0, ops)
    assert [r.op.key for r in results] == ["a", "b", "c"]
    assert all(r.status == "ok" and r.scaled > 0 and r.scaled != r.latency for r in results)
