import json
import pathlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_map
from fillgeo import reducer, surfmap
from fillgeo.errors import DomainError, InternalInvariantError, ValidationError
from fillgeo.reducer import (
    CuttingCurve,
    add_cutting_curve,
    complement_regions,
    find_cutting_curve,
    is_essential,
    reduce,
    validate_input,
)
from test_reduce_digests import surface_genus

DATA_DIR = pathlib.Path(__file__).parent / "data"

POSITIVE_FIXTURES = [
    "canonical_g2",
    "canonical_g3",
    "canonical_g4",
    "canonical_g5",
    "triangle_a",
    "triangle_b",
    "triangle_c",
    "sixvalent_a",
    "sixvalent_b",
]


def load_fixture(name):
    data = json.loads((DATA_DIR / f"{name}.json").read_text())
    return surfmap.from_interchange(data), data["genus"]


def torus_two_curves():
    # two curves crossing twice, filling a torus with two square faces
    return surfmap.CombinatorialMap(
        dart_count=8,
        alpha=(4, 5, 6, 7, 0, 1, 2, 3),
        sigma=(1, 2, 3, 0, 5, 6, 7, 4),
    )


def lasso_with_trivial_loop():
    # one curve crossing a one-vertex circle, then crossing itself so
    # that its loop part bounds a (monogon) disk face
    return surfmap.CombinatorialMap(
        dart_count=8,
        alpha=(2, 4, 0, 7, 1, 6, 5, 3),
        sigma=(1, 2, 3, 0, 5, 6, 7, 4),
    )


class TestValidateInput:
    def test_canonical_accepted(self):
        cmap, genus = load_fixture("canonical_g2")
        filling = validate_input(cmap, genus)
        assert filling.genus == 2
        assert filling.cmap is cmap

    def test_interchange_dict_accepted(self):
        data = json.loads((DATA_DIR / "canonical_g2.json").read_text())
        filling = validate_input(data, 2)
        assert filling.cmap.dart_count == data["dart_count"]

    def test_bigon_rejected(self):
        cmap, _ = load_fixture("bigon")
        with pytest.raises(ValidationError, match="bigon"):
            validate_input(cmap, 2)

    def test_wrong_genus_rejected(self):
        cmap, _ = load_fixture("torus_claim")
        with pytest.raises(ValidationError, match="does not fill"):
            validate_input(cmap, 2)

    def test_disconnected_rejected(self):
        base = torus_two_curves()
        double = surfmap.CombinatorialMap(
            dart_count=16,
            alpha=base.alpha + tuple(d + 8 for d in base.alpha),
            sigma=base.sigma + tuple(d + 8 for d in base.sigma),
        )
        with pytest.raises(ValidationError, match="disconnected"):
            validate_input(double, 2)

    def test_odd_valence_rejected(self):
        theta = surfmap.CombinatorialMap(
            dart_count=6,
            alpha=(3, 4, 5, 0, 1, 2),
            sigma=(1, 2, 0, 4, 5, 3),
        )
        with pytest.raises(ValidationError, match="odd"):
            validate_input(theta, 2)

    def test_two_valent_rejected(self):
        circle = surfmap.CombinatorialMap(
            dart_count=2, alpha=(1, 0), sigma=(1, 0)
        )
        with pytest.raises(ValidationError, match="below four"):
            validate_input(circle, 2)

    def test_small_genus_rejected(self):
        cmap, _ = load_fixture("canonical_g2")
        with pytest.raises(DomainError):
            validate_input(cmap, 1)
        with pytest.raises(DomainError):
            validate_input(cmap, True)

    def test_straight_corners_rejected(self):
        cmap, _ = load_fixture("canonical_g2")
        marked = surfmap.CombinatorialMap(
            dart_count=cmap.dart_count,
            alpha=cmap.alpha,
            sigma=cmap.sigma,
            straight_corners=frozenset({0}),
        )
        with pytest.raises(ValidationError, match="straight"):
            validate_input(marked, 2)


class TestComplementRegions:
    def test_empty_subgraph_whole_surface(self):
        for name in ("canonical_g2", "canonical_g3"):
            cmap, genus = load_fixture(name)
            regions = complement_regions(cmap, frozenset())
            assert len(regions) == 1
            assert regions[0].euler == 2 - 2 * genus
            assert not regions[0].is_disk

    def test_full_subgraph_gives_faces(self):
        cmap, _ = load_fixture("canonical_g2")
        regions = complement_regions(cmap, frozenset(range(cmap.dart_count)))
        assert len(regions) == len(cmap.faces())
        assert all(r.is_disk for r in regions)

    def test_nonseparating_loop_leaves_one_region(self):
        cmap, _ = load_fixture("canonical_g2")
        curve = find_cutting_curve(cmap, frozenset())
        _, subgraph = add_cutting_curve(cmap, frozenset(), curve)
        regions = complement_regions(cmap, subgraph)
        assert len(regions) == 1
        assert not regions[0].is_disk

    def test_annulus_between_curve_sides(self):
        cmap = torus_two_curves()
        regions = complement_regions(cmap, frozenset({0, 2, 4, 6}))
        assert len(regions) == 1
        annulus = regions[0]
        assert annulus.euler == 0

    def test_subgraph_dart_out_of_range(self):
        cmap, _ = load_fixture("canonical_g2")
        with pytest.raises(ValidationError, match="out of range"):
            complement_regions(cmap, frozenset({cmap.dart_count}))

    def test_subgraph_must_be_edge_closed(self):
        cmap, _ = load_fixture("canonical_g2")
        with pytest.raises(ValidationError, match="involution"):
            complement_regions(cmap, frozenset({0}))


class TestFindCuttingCurve:
    def test_empty_subgraph_gives_loop(self):
        cmap, _ = load_fixture("canonical_g2")
        curve = find_cutting_curve(cmap, frozenset())
        assert curve.kind in ("I", "II", "III", "IV")
        assert is_essential(cmap, frozenset(), curve)
        assert len(curve.darts) >= 1

    def test_nonempty_subgraph_gives_arc_or_lasso(self):
        cmap, _ = load_fixture("canonical_g2")
        first = find_cutting_curve(cmap, frozenset())
        cmap2, subgraph = add_cutting_curve(cmap, frozenset(), first)
        second = find_cutting_curve(cmap2, subgraph)
        assert second.kind in ("V", "VI")
        assert is_essential(cmap2, subgraph, second)

    def test_filling_subgraph_is_precondition_violation(self):
        cmap, _ = load_fixture("canonical_g2")
        with pytest.raises(DomainError, match="already fills"):
            find_cutting_curve(cmap, frozenset(range(cmap.dart_count)))

    def test_deterministic(self):
        cmap, _ = load_fixture("triangle_a")
        a = find_cutting_curve(cmap, frozenset())
        b = find_cutting_curve(cmap, frozenset())
        assert a == b


class TestAddCuttingCurve:
    def test_loop_requires_empty_subgraph(self):
        cmap, _ = load_fixture("canonical_g2")
        first = find_cutting_curve(cmap, frozenset())
        cmap2, subgraph = add_cutting_curve(cmap, frozenset(), first)
        fresh = min(
            d for d in range(cmap2.dart_count)
            if d not in subgraph and cmap2.alpha[d] not in subgraph
        )
        loop = CuttingCurve(darts=(fresh,), kind="II")
        with pytest.raises(ValidationError, match="empty subgraph"):
            add_cutting_curve(cmap2, subgraph, loop)

    def test_rejects_reused_material(self):
        cmap, _ = load_fixture("canonical_g2")
        first = find_cutting_curve(cmap, frozenset())
        cmap2, subgraph = add_cutting_curve(cmap, frozenset(), first)
        stale = CuttingCurve(darts=(min(subgraph),), kind="V")
        with pytest.raises(ValidationError, match="reuses"):
            add_cutting_curve(cmap2, subgraph, stale)

    def test_rejects_empty_curve(self):
        cmap, _ = load_fixture("canonical_g2")
        with pytest.raises(ValidationError, match="empty"):
            add_cutting_curve(cmap, frozenset(), CuttingCurve(darts=(), kind="I"))

    def test_rejects_unknown_kind(self):
        cmap, _ = load_fixture("canonical_g2")
        with pytest.raises(ValidationError, match="unknown"):
            add_cutting_curve(cmap, frozenset(), CuttingCurve(darts=(0,), kind="X"))

    def test_arc_must_start_on_subgraph(self):
        cmap = torus_two_curves()
        bad = CuttingCurve(darts=(1,), kind="V")
        with pytest.raises(ValidationError, match="start on the subgraph"):
            add_cutting_curve(cmap, frozenset(), bad)

    def test_spanning_arc_makes_two_trivalent_vertices(self):
        cmap = torus_two_curves()
        subgraph = frozenset({0, 2, 4, 6})
        arc = CuttingCurve(darts=(1,), kind="V")
        new_map, new_g = add_cutting_curve(cmap, subgraph, arc)
        owner = new_map.vertex_of_dart()
        valence = {}
        for d in new_g:
            valence[owner[d]] = valence.get(owner[d], 0) + 1
        assert sorted(valence.values()) == [3, 3]

    def test_subgraph_always_edge_closed(self):
        cmap, _ = load_fixture("sixvalent_a")
        subgraph = frozenset()
        for _ in range(3):
            curve = find_cutting_curve(cmap, subgraph)
            cmap, subgraph = add_cutting_curve(cmap, subgraph, curve)
            assert all(cmap.alpha[d] in subgraph for d in subgraph)

    def test_commit_without_new_darts_returns_the_input_map(self):
        cmap, _ = load_fixture("canonical_g2")
        loop = find_cutting_curve(cmap, frozenset())
        after_loop, subgraph = add_cutting_curve(cmap, frozenset(), loop)
        assert after_loop is cmap
        arc = find_cutting_curve(cmap, subgraph)
        assert arc.kind == "V"
        after_arc, grown = add_cutting_curve(cmap, subgraph, arc)
        assert after_arc is cmap
        assert grown > subgraph

    def test_displaced_commit_keeps_old_darts(self):
        """A commit that fires the split rule keeps every old dart's sigma
        entry and numbers the new darts from the input dart count up."""
        displaced = []
        for path in sorted(DATA_DIR.glob("reproducer_*.json")):
            cmap, subgraph = load_fixture(path.stem)[0], frozenset()
            while not all(r.is_disk for r in complement_regions(cmap, subgraph)):
                curve = find_cutting_curve(cmap, subgraph)
                new_map, new_g = add_cutting_curve(cmap, subgraph, curve)
                if new_map.dart_count > cmap.dart_count:
                    displaced.append((cmap, subgraph, new_map, new_g))
                cmap, subgraph = new_map, new_g
        assert displaced, "the split rule should fire on the reproducers"
        for cmap, subgraph, new_map, new_g in displaced:
            n = cmap.dart_count
            assert new_map.sigma[:n] == cmap.sigma
            assert all(new_map.sigma[d] >= n for d in range(n, new_map.dart_count))
            assert all(new_map.alpha[d] in (cmap.alpha[d], *range(n, new_map.dart_count))
                       for d in range(n))
            assert cmap.straight_corners < new_map.straight_corners
            assert subgraph < new_g


PUBLIC_WITH_SUBGRAPH = {
    "complement_regions": lambda cmap, g, curve: complement_regions(cmap, g),
    "find_cutting_curve": lambda cmap, g, curve: find_cutting_curve(cmap, g),
    "is_essential": is_essential,
    "add_cutting_curve": add_cutting_curve,
}


@pytest.mark.parametrize("name", sorted(PUBLIC_WITH_SUBGRAPH))
def test_public_functions_check_a_callers_subgraph(name):
    call = PUBLIC_WITH_SUBGRAPH[name]
    cmap, _ = load_fixture("canonical_g2")
    first = find_cutting_curve(cmap, frozenset())
    cmap, subgraph = add_cutting_curve(cmap, frozenset(), first)
    curve = find_cutting_curve(cmap, subgraph)
    with pytest.raises(ValidationError, match="out of range"):
        call(cmap, subgraph | {999}, curve)
    with pytest.raises(ValidationError, match="involution"):
        call(cmap, subgraph - {min(subgraph)}, curve)


class TestIsEssential:
    def test_spanning_arc_of_annulus(self):
        cmap = torus_two_curves()
        subgraph = frozenset({0, 2, 4, 6})
        arc = CuttingCurve(darts=(1,), kind="V")
        assert is_essential(cmap, subgraph, arc)

    def test_boundary_parallel_arc(self):
        cmap, _ = load_fixture("triangle_b")
        first = find_cutting_curve(cmap, frozenset())
        cmap2, subgraph = add_cutting_curve(cmap, frozenset(), first)
        pushoff = CuttingCurve(darts=(13, 1), kind="V")
        assert not is_essential(cmap2, subgraph, pushoff)

    def test_lasso_with_contractible_loop(self):
        cmap = lasso_with_trivial_loop()
        subgraph = frozenset({0, 2})
        lasso = CuttingCurve(darts=(1, 6), kind="VI")
        assert not is_essential(cmap, subgraph, lasso)


class TestReduce:
    @pytest.mark.parametrize("name", POSITIVE_FIXTURES)
    def test_certificate_checks(self, name):
        cmap, genus = load_fixture(name)
        cert = reduce(validate_input(cmap, genus))
        assert cert.passed
        assert cert.filling
        assert cert.min_degree_ok and all(m >= 5 for m in cert.face_degrees)
        assert cert.degree_sum_ok
        assert sum(m - 4 for m in cert.face_degrees) == 8 * genus - 8
        assert cert.k == len(cert.face_degrees)
        assert cert.iterations == len(cert.steps)
        assert cert.iterations <= len(cmap.edges())
        assert cert.input_dart_count == cmap.dart_count

    @pytest.mark.parametrize("name", POSITIVE_FIXTURES)
    def test_independent_face_tracing_oracle(self, name):
        cmap, genus = load_fixture(name)
        cert = reduce(validate_input(cmap, genus))
        reduced = surfmap.from_interchange(cert.reduced_map)
        report = surfmap.surface_report(reduced)
        assert tuple(report["face_effective_degrees"]) == cert.face_degrees
        assert report["genus"] == genus
        valences = report["vertex_valences"]
        assert set(valences) <= {3, 4}
        three = sum(1 for v in valences if v == 3)
        four = sum(1 for v in valences if v == 4)
        assert 2 * three + 4 * four == sum(cert.face_degrees)

    @pytest.mark.parametrize("name", POSITIVE_FIXTURES)
    def test_subgraph_closed_in_ambient_map(self, name):
        cmap, genus = load_fixture(name)
        cert = reduce(validate_input(cmap, genus))
        ambient = surfmap.from_interchange(cert.ambient_map)
        darts = set(cert.subgraph_darts)
        assert all(0 <= d < ambient.dart_count for d in darts)
        assert all(ambient.alpha[d] in darts for d in darts)
        regions = complement_regions(ambient, frozenset(darts))
        assert all(r.is_disk for r in regions)

    def test_canonical_reduction_is_idempotent(self):
        for name in ("canonical_g2", "canonical_g3"):
            cmap, genus = load_fixture(name)
            cert = reduce(validate_input(cmap, genus))
            before = surfmap.surface_report(cmap)
            after = surfmap.surface_report(surfmap.from_interchange(cert.reduced_map))
            for key in (
                "vertices",
                "edges",
                "faces",
                "genus",
                "vertex_valences",
                "face_effective_degrees",
                "curve_components",
                "self_intersections",
            ):
                assert after[key] == before[key], key

    def test_split_rule_never_fires_on_double_points(self):
        for name in ("triangle_a", "triangle_b", "triangle_c"):
            cmap, genus = load_fixture(name)
            cert = reduce(validate_input(cmap, genus))
            assert cert.ambient_map["dart_count"] == cert.input_dart_count

    def test_split_rule_fires_at_triple_points(self):
        fired = []
        for name in ("sixvalent_a", "sixvalent_b"):
            cmap, genus = load_fixture(name)
            cert = reduce(validate_input(cmap, genus))
            fired.append(cert.ambient_map["dart_count"] > cert.input_dart_count)
        assert any(fired)

    def test_step_log_records_kind_and_darts(self):
        cmap, genus = load_fixture("canonical_g2")
        cert = reduce(validate_input(cmap, genus))
        assert len(cert.steps) == cert.iterations
        for line in cert.steps:
            assert "kind" in line and "darts" in line and "essential" in line
        assert cert.steps[0].startswith("step 1:")

    def test_summary_and_serialization(self):
        cmap, genus = load_fixture("canonical_g2")
        cert = reduce(validate_input(cmap, genus))
        assert cert.summary().startswith("[PASS] reduction genus=2")
        data = json.loads(cert.to_json())
        assert data["face_degrees"] == list(cert.face_degrees)
        assert data["k"] == cert.k
        assert data["genus"] == 2
        assert data["input_dart_count"] == cmap.dart_count
        rebuilt = surfmap.from_interchange(data["reduced_map"])
        assert surfmap.surface_report(rebuilt)["genus"] == 2

    def test_requires_validated_input(self):
        with pytest.raises(ValidationError, match="FillingMap"):
            reduce({"dart_count": 0, "alpha": [], "sigma": []})

    def test_replay_of_step_log_reaches_certificate(self):
        cmap, genus = load_fixture("sixvalent_b")
        cert = reduce(validate_input(cmap, genus))
        subgraph = frozenset()
        for _ in cert.steps:
            curve = find_cutting_curve(cmap, subgraph)
            cmap, subgraph = add_cutting_curve(cmap, subgraph, curve)
        assert subgraph == frozenset(cert.subgraph_darts)
        assert surfmap.to_interchange(cmap) == cert.ambient_map


def _random_four_valent_map(seed):
    return random_map(random.Random(seed), [4] * 6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_certificate_identity_on_random_filling_maps(seed):
    # scan forward from the drawn seed to the next genus-2 filling map
    for offset in range(2000):
        cmap = _random_four_valent_map(seed + offset)
        if not cmap.is_connected():
            continue
        faces = cmap.faces()
        if any(len(f) < 3 for f in faces):
            continue
        euler = len(cmap.vertices()) - len(cmap.edges()) + len(faces)
        if euler == -2:
            break
    else:
        assume(False)
    cert = reduce(validate_input(cmap, 2))
    assert cert.degree_sum_ok
    assert sum(m - 4 for m in cert.face_degrees) == 8
    reduced = surfmap.from_interchange(cert.reduced_map)
    report = surfmap.surface_report(reduced)
    assert tuple(report["face_effective_degrees"]) == cert.face_degrees
    assert report["genus"] == 2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_certificate_passes_on_random_mixed_valence_maps(seed):
    # scan forward from the drawn seed to the next filling map with a
    # vertex of valence 6 or 8 on a surface of genus 2 to 4
    for offset in range(2000):
        rng = random.Random(seed + offset)
        valences = [rng.choice((4, 6, 8)) for _ in range(rng.randint(3, 6))]
        cmap = random_map(rng, valences)
        genus = surface_genus(cmap)
        if genus in (2, 3, 4) and max(valences) > 4:
            break
    else:
        assume(False)
    cert = reduce(validate_input(cmap, genus))
    assert cert.passed, (valences, cert.face_degrees)


# Maps on which the reducer once raised InternalInvariantError or
# certified a degree-4 face, written by scripts/make_reducer_fixtures.py.
REPRODUCERS = sorted(DATA_DIR.glob("reproducer_*.json"))


@pytest.mark.parametrize(
    "path", REPRODUCERS, ids=[p.stem.removeprefix("reproducer_") for p in REPRODUCERS]
)
def test_mixed_valence_reproducer_passes(path):
    data = json.loads(path.read_text())
    cert = reduce(validate_input(data, data["genus"]))
    assert all(m >= 5 for m in cert.face_degrees), cert.face_degrees
    assert sum(m - 4 for m in cert.face_degrees) == 8 * cert.genus - 8
    assert cert.passed
