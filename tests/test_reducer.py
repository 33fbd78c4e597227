import copy
import json
import math
import pathlib
import random
import time
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import complement, random_map
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
from test_perfbench_tracing import load_tracing
from test_reduce_digests import mixed, surface_genus

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


def torus_grid(n, rows=(), columns=()):
    """The four-valent n x n grid on the torus, and the subgraph of the
    given rows and columns.  The darts of vertex (r, c) point east,
    north, west and south, in that rotation order; its faces are the
    n * n squares."""
    alpha, g = [0] * (4 * n * n), set()
    for r in range(n):
        for c in range(n):
            v = 4 * (r * n + c)
            east, north = 4 * (r * n + (c + 1) % n) + 2, 4 * ((r + 1) % n * n + c) + 3
            alpha[v], alpha[east], alpha[v + 1], alpha[north] = east, v, north, v + 1
            if r in rows:
                g |= {v, east}
            if c in columns:
                g |= {v + 1, north}
    sigma = tuple(d - d % 4 + (d + 1) % 4 for d in range(4 * n * n))
    cmap = surfmap.CombinatorialMap(dart_count=4 * n * n, alpha=tuple(alpha), sigma=sigma)
    return cmap, frozenset(g)


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
        # a refusal of validated input, not polygeom's DomainError
        cmap, _ = load_fixture("canonical_g2")
        for genus in (1, True, 2.0, "2", None):
            with pytest.raises(ValidationError) as refused:
                validate_input(cmap, genus)
            assert str(refused.value) == f"genus must be an integer of at least 2, got {genus!r}"
            with pytest.raises(ValidationError):
                reducer.FillingMap(cmap, genus)

    @pytest.mark.parametrize("straight, message", [
        ([1, True], "malformed map data: True is not an integer"),
        ([3, 3], "malformed map data: a straight corner is listed twice"),
        ({}, "malformed map data: straight_corners is a dict, not a list"),
        ("", "malformed map data: straight_corners is a str, not a list"),
    ])
    def test_straight_corners_read_as_a_list(self, straight, message):
        # a set made first would merge true into 1, and read {} and "" as no corners
        data = json.loads((DATA_DIR / "canonical_g2.json").read_text())
        data["straight_corners"] = straight
        with pytest.raises(ValidationError) as refused:
            validate_input(data, 2)
        assert str(refused.value) == message

    @pytest.mark.parametrize("data, message", [
        ([], "malformed map data: a list, not an object"),
        ({"alpha": [1, 0], "sigma": [0, 1]}, "malformed map data: no 'dart_count'"),
        ({"dart_count": 2, "alpha": (1, 0), "sigma": [0, 1]},
         "malformed map data: alpha is a tuple, not a list"),
        ({"dart_count": 2, "alpha": [1, 0], "sigma": "01"},
         "malformed map data: sigma is a str, not a list"),
    ])
    def test_interchange_shape_checked_first(self, data, message):
        with pytest.raises(ValidationError) as refused:
            validate_input(data, 2)
        assert str(refused.value) == message

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

    @pytest.mark.parametrize("name, genus, match", [
        ("bigon", 2, "bigon"),
        ("canonical_g2", 3, "does not fill"),
        ("torus_claim", 2, "does not fill"),
    ])
    def test_filling_map_checks_itself(self, name, genus, match):
        # built directly, without validate_input, a bad map is refused
        # before reduce can trust it
        cmap, _ = load_fixture(name)
        with pytest.raises(ValidationError, match=match):
            reducer.FillingMap(cmap, genus)

    def test_non_orientable_map_rejected(self):
        # some side pairs glued without reversal: no map is built, so
        # none reaches validate_input
        with pytest.raises(ValidationError, match="non-orientable"):
            surfmap.build_map("a6 a3 a1 a4 a6' a3' a5 a1 a2 a5' a4' a2'".split())

    def test_filling_map_needs_a_map(self):
        data = json.loads((DATA_DIR / "canonical_g2.json").read_text())
        with pytest.raises(ValidationError, match="CombinatorialMap"):
            reducer.FillingMap(data, 2)


INTERCHANGE_FIELDS = ("dart_count", "alpha", "sigma", "straight_corners")
MAP_FIXTURES = [
    data for data in (json.loads(p.read_text()) for p in sorted(DATA_DIR.glob("*.json")))
    if "dart_count" in data
]
# copied when drawn: an edit may append to a drawn list
JUNK = st.sampled_from(
    (None, True, False, 0, 1, -1, 0.5, 2.0, math.nan, "", "1", 10**30, [], {}, [1, True], [0])
).map(copy.deepcopy)


@st.composite
def mutated_maps(draw):
    """A map fixture with up to two edits, and its genus or another: an
    entry or field replaced by junk, entries swapped, dropped or
    appended, a field dropped, or now and then the whole data replaced."""
    data = copy.deepcopy(draw(st.sampled_from(MAP_FIXTURES)))
    g = data["genus"]
    genus = draw(st.sampled_from((g, g, g, g - 1, g + 1, 1, 0, True, 2.0, "2", None)))
    for _ in range(draw(st.integers(0, 2))):
        if not isinstance(data, dict):
            break
        field = draw(st.sampled_from(INTERCHANGE_FIELDS))
        value = data.get(field)
        edits = ["junk", "drop field"]
        if isinstance(value, list):
            edits += ["append", "append dart"] + (["entry", "swap", "drop entry"] if value else [])
        edit = draw(st.sampled_from(edits))
        if edit == "junk":
            data[field] = draw(JUNK)
        elif edit == "drop field":
            data.pop(field, None)
        elif edit == "append":
            value.append(draw(JUNK))
        elif edit == "append dart":
            value.append(draw(st.integers(-1, 60)))
        else:
            i = draw(st.integers(0, len(value) - 1))
            j = draw(st.integers(0, len(value) - 1))
            if edit == "entry":
                value[i] = draw(JUNK)
            elif edit == "swap":
                value[i], value[j] = value[j], value[i]
            else:
                del value[i]
    if draw(st.integers(0, 49)) == 0:
        data = draw(st.sampled_from(([], None, "map", 12)))
    return data, genus


def as_written(data):
    """The interchange fields of data as to_interchange writes them: JSON
    text, so that true differs from 1 and 1.0; the corners sorted."""
    fields = {key: data.get(key, []) for key in INTERCHANGE_FIELDS}
    if isinstance(fields["straight_corners"], list):
        fields["straight_corners"] = sorted(fields["straight_corners"])
    return json.dumps(fields, sort_keys=True)


def with_corners(straight):
    data = json.loads((DATA_DIR / "canonical_g2.json").read_text())
    data["straight_corners"] = straight
    return data, 2


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutated_maps())
@example(with_corners([1, True]))
@example(with_corners({}))
def test_mutated_map_is_refused_or_read_as_written(case):
    # every input is refused with ValidationError, or read as written
    # and certified: no entry is converted, merged or dropped on the way
    data, genus = case
    try:
        cmap = surfmap.from_interchange(data)
    except ValidationError:
        return
    assert json.dumps(surfmap.to_interchange(cmap), sort_keys=True) == as_written(data)
    try:
        filling = validate_input(data, genus)
    except ValidationError:
        return
    assert filling.cmap == cmap
    assert reduce(filling).passed


def after_first_curve(cmap):
    """The complement of the map after its first cutting curve."""
    state = complement(cmap)
    return add_cutting_curve(state, find_cutting_curve(state))


class TestComplementRegions:
    def test_empty_subgraph_whole_surface(self):
        for name in ("canonical_g2", "canonical_g3"):
            cmap, genus = load_fixture(name)
            regions = complement_regions(complement(cmap))
            assert len(regions) == 1
            assert regions[0].euler == 2 - 2 * genus
            assert not regions[0].is_disk

    def test_full_subgraph_gives_faces(self):
        cmap, _ = load_fixture("canonical_g2")
        regions = complement_regions(complement(cmap, range(cmap.dart_count)))
        assert len(regions) == len(cmap.faces())
        assert all(r.is_disk for r in regions)

    def test_nonseparating_loop_leaves_one_region(self):
        cmap, _ = load_fixture("canonical_g2")
        regions = complement_regions(after_first_curve(cmap))
        assert len(regions) == 1
        assert not regions[0].is_disk

    def test_annulus_between_curve_sides(self):
        cmap = torus_two_curves()
        regions = complement_regions(complement(cmap, {0, 2, 4, 6}))
        assert len(regions) == 1
        annulus = regions[0]
        assert annulus.euler == 0

    def test_non_orientable_map_refused(self):
        # no map is built, so none reaches complement
        with pytest.raises(ValidationError, match="non-orientable"):
            surfmap.build_map(["a", "b", "a", "b"])

    def test_torus_grid_builds_within_budget(self):
        # 40,000 faces, every one a source of the region search
        cmap, _ = torus_grid(200)
        start = time.perf_counter()
        state = complement(cmap)
        elapsed = time.perf_counter() - start
        assert [r.euler for r in complement_regions(state)] == [0]
        assert elapsed < 1.5, f"{elapsed:.2f}s"


class TestFindCuttingCurve:
    def test_empty_subgraph_gives_loop(self):
        cmap, _ = load_fixture("canonical_g2")
        curve = find_cutting_curve(complement(cmap)).curve
        assert curve.kind in ("I", "II", "III", "IV")
        assert is_essential(complement(cmap), curve) is not None
        assert len(curve.darts) >= 1

    def test_nonempty_subgraph_gives_arc_or_lasso(self):
        cmap, _ = load_fixture("canonical_g2")
        state = after_first_curve(cmap)
        second = find_cutting_curve(state).curve
        assert second.kind in ("V", "VI")
        assert is_essential(state, second) is not None

    def test_filling_subgraph_is_precondition_violation(self):
        cmap, _ = load_fixture("canonical_g2")
        with pytest.raises(DomainError, match="already fills"):
            find_cutting_curve(complement(cmap, range(cmap.dart_count)))

    def test_deterministic(self):
        cmap, _ = load_fixture("triangle_a")
        a = find_cutting_curve(complement(cmap)).curve
        b = find_cutting_curve(complement(cmap)).curve
        assert a == b

    def test_arc_walk_raises_at_a_strand_end(self):
        # dart 0 leaves a subgraph vertex for a vertex with no subgraph
        # germ, where dart 1 has no strand opposite
        alpha, opp, owner, g_vertex = [1, 0], [None, None], [0, 1], [1, 0]
        with pytest.raises(InternalInvariantError, match="strand end"):
            reducer._walk_arc(alpha, opp, owner, g_vertex, 0)


class TestAddCuttingCurve:
    """Commits of the cuts is_essential makes."""

    def test_spanning_arc_makes_two_trivalent_vertices(self):
        state = complement(torus_two_curves(), {0, 2, 4, 6})
        arc = walked(state, CuttingCurve(darts=(1,), kind="V"))
        state = add_cutting_curve(state, is_essential(state, arc))
        owner = state.freeze().vertex_of_dart()
        valence = {}
        for d in state.g:
            valence[owner[d]] = valence.get(owner[d], 0) + 1
        assert sorted(valence.values()) == [3, 3]

    def test_subgraph_always_edge_closed(self):
        cmap, _ = load_fixture("sixvalent_a")
        state = complement(cmap)
        for _ in range(3):
            state = add_cutting_curve(state, find_cutting_curve(state))
            cmap = state.freeze()
            assert all(cmap.alpha[d] in state.g for d in state.g)

    def test_commit_without_new_darts_returns_the_input_map(self):
        cmap, _ = load_fixture("canonical_g2")
        state = complement(cmap)
        state = add_cutting_curve(state, find_cutting_curve(state))
        assert state.freeze() is cmap
        subgraph = frozenset(state.g)
        arc = find_cutting_curve(state)
        assert arc.curve.kind == "V"
        state = add_cutting_curve(state, arc)
        assert state.freeze() is cmap
        assert state.g > subgraph

    def test_displaced_commit_keeps_old_darts(self):
        """A commit that fires the split rule keeps every old dart's sigma
        entry and numbers the new darts from the old dart count up."""
        displaced = []
        for path in sorted(DATA_DIR.glob("reproducer_*.json")):
            state = complement(load_fixture(path.stem)[0])
            while not all(r.is_disk for r in complement_regions(state)):
                cmap, subgraph = state.freeze(), frozenset(state.g)
                state = add_cutting_curve(state, find_cutting_curve(state))
                new_map, new_g = state.freeze(), frozenset(state.g)
                if new_map.dart_count > cmap.dart_count:
                    displaced.append((cmap, subgraph, new_map, new_g))
        assert displaced, "the split rule should fire on the reproducers"
        for cmap, subgraph, new_map, new_g in displaced:
            n = cmap.dart_count
            assert new_map.sigma[:n] == cmap.sigma
            assert all(new_map.sigma[d] >= n for d in range(n, new_map.dart_count))
            assert all(new_map.alpha[d] in (cmap.alpha[d], *range(n, new_map.dart_count))
                       for d in range(n))
            assert cmap.straight_corners < new_map.straight_corners
            assert subgraph < new_g

    def test_cut_made_before_the_last_commit_is_refused(self):
        cmap, _ = load_fixture("canonical_g2")
        state = complement(cmap)
        first = find_cutting_curve(state)
        state = add_cutting_curve(state, first)
        with pytest.raises(ValidationError, match="last commit"):
            add_cutting_curve(state, first)
        stale = find_cutting_curve(state)
        state = add_cutting_curve(state, find_cutting_curve(state))
        with pytest.raises(ValidationError, match="last commit"):
            add_cutting_curve(state, stale)

    def test_cut_judged_on_a_copy_commits_once(self):
        """A one-vertex arc whose end the split rule displaces is cut on
        a copy of the state, refined there; the copy is the next state,
        and the cut commits once."""
        cmap, genus = mixed(50)
        state = complement(cmap)
        while True:
            cut = find_cutting_curve(state)
            if cut.state is not state and len(cut.state.alpha) > len(state.alpha):
                break
            state = add_cutting_curve(state, cut)
        after = add_cutting_curve(state, cut)
        assert after is cut.state
        assert len(after.alpha) > len(state.alpha)
        for target in (state, after):
            with pytest.raises(ValidationError, match="last commit"):
                add_cutting_curve(target, cut)

    @pytest.mark.parametrize("name", ["sixvalent_a", "sixvalent_b", "reproducer_6-6-4-4@690"])
    def test_judged_cut_commits_like_the_found_one(self, name):
        cmap, _ = load_fixture(name)
        state, twin = complement(cmap), complement(cmap)
        while not state.fills:
            found = find_cutting_curve(state)
            judged = is_essential(twin, found.curve)
            assert judged is not None
            state = add_cutting_curve(state, found)
            twin = add_cutting_curve(twin, judged)
            assert twin.freeze() == state.freeze()
            assert twin.g == state.g
        assert len(state.alpha) > cmap.dart_count, "the split rule should fire"


def walked(state, curve):
    """curve, once it is the walk _walk_arc makes on state from its
    first germ: is_essential takes its curve unchecked."""
    walk = reducer._walk_arc(state.alpha, state.opp, state.owner, state.gcount, curve.darts[0])
    assert walk == tuple(curve), (walk, curve)
    return curve


class TestIsEssential:
    def test_spanning_arc_of_annulus(self):
        state = complement(torus_two_curves(), {0, 2, 4, 6})
        arc = walked(state, CuttingCurve(darts=(1,), kind="V"))
        assert is_essential(state, arc) is not None

    def test_boundary_parallel_arc(self):
        cmap, _ = load_fixture("triangle_b")
        state = after_first_curve(cmap)
        pushoff = walked(state, CuttingCurve(darts=(13, 1), kind="V"))
        assert is_essential(state, pushoff) is None

    def test_lasso_with_contractible_loop(self):
        state = complement(lasso_with_trivial_loop(), {0, 2})
        lasso = walked(state, CuttingCurve(darts=(1, 6), kind="VI"))
        assert is_essential(state, lasso) is None


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
        assert cert.iterations <= len(cmap.orbits(cmap.alpha))
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
        regions = complement_regions(complement(ambient, darts))
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

    def test_records_are_frozen_values(self):
        # the records are named tuples: no field can be assigned, records
        # of equal fields are equal, and a certificate's dict holds its
        # field values themselves, not copies
        cmap, genus = load_fixture("canonical_g2")
        filling = validate_input(cmap, genus)
        cert = reduce(filling)
        curve = find_cutting_curve(complement(cmap)).curve
        for record in (filling, curve, cert):
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))
        assert cert.as_dict()["ambient_map"] is cert.ambient_map
        assert CuttingCurve(darts=tuple(list(curve.darts)), kind=curve.kind) == curve
        regions = complement_regions(after_first_curve(cmap))
        assert complement_regions(after_first_curve(cmap)) == regions

    def test_requires_validated_input(self):
        with pytest.raises(ValidationError, match="FillingMap"):
            reduce({"dart_count": 0, "alpha": [], "sigma": []})

    def test_stops_at_its_iteration_budget(self, monkeypatch):
        # every valid input fills within budget; a cut that adds nothing never does
        cmap, genus = load_fixture("canonical_g2")
        budget = cmap.dart_count // 2
        cuts = []

        def adds_nothing(state, cut):
            cuts.append(cut)
            assert len(cuts) <= budget, "reduce ran past its budget"
            return state

        monkeypatch.setattr(reducer, "add_cutting_curve", adds_nothing)
        with pytest.raises(InternalInvariantError) as info:
            reduce(validate_input(cmap, genus))
        message, log = str(info.value).split(" [step log: ")
        assert message == "reduction exceeded its iteration budget of one step per input edge"
        assert log.count("; step ") == budget - 1
        assert f"step {budget}: " in log

    def test_search_failure_carries_the_step_log(self, monkeypatch):
        cmap, genus = load_fixture("canonical_g2")
        find = reducer.find_cutting_curve
        searches = []

        def fails_third(state):
            searches.append(state)
            if len(searches) == 3:
                raise InternalInvariantError("stub: no essential cutting curve")
            return find(state)

        monkeypatch.setattr(reducer, "find_cutting_curve", fails_third)
        with pytest.raises(InternalInvariantError) as info:
            reduce(validate_input(cmap, genus))
        message = str(info.value)
        assert message.startswith("stub: no essential cutting curve [step log: step 1: ")
        assert "; step 2: " in message and "step 3" not in message

    def test_replay_of_step_log_reaches_certificate(self):
        cmap, genus = load_fixture("sixvalent_b")
        cert = reduce(validate_input(cmap, genus))
        state = complement(cmap)
        for _ in cert.steps:
            state = add_cutting_curve(state, find_cutting_curve(state))
        assert state.g == set(cert.subgraph_darts)
        assert surfmap.to_interchange(state.freeze()) == cert.ambient_map

    def test_reduce_steps_through_the_public_step_functions(self):
        tracing = load_tracing()
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            data = json.loads((DATA_DIR / "reproducer_6-6-4-4@690.json").read_text())
            cert = reduce(validate_input(data, data["genus"]))
        finally:
            restore()
        spans = Counter(span[tracing.NAME] for span in tracer.spans)
        assert cert.iterations > 0
        assert spans["reducer.find_cutting_curve"] == cert.iterations
        assert spans["reducer.add_cutting_curve"] == cert.iterations


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
        euler = len(cmap.vertices()) - len(cmap.orbits(cmap.alpha)) + len(faces)
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


# Seed-1 {4,6,8} maps of scripts/reduce_scaling.py: vertices -> trials.
# The scan walked 17,030, 64,551 and 246,094 germs for these when it
# walked every candidate on every iteration.
SCALING_TRIALS = {96: 524, 192: 919, 384: 1840}


@pytest.mark.parametrize("vertices", sorted(SCALING_TRIALS))
def test_scan_walks_only_germs_whose_verdict_can_have_changed(monkeypatch, vertices):
    """The scan walks a candidate germ only when it is not clean (see
    the _Complement docstring), so walks grow with trials, not with
    trials times candidates.  Counted from outside, so the bound holds
    on any host."""
    from reduce_scaling import draw_input

    filling = draw_input(random.Random(1), vertices, (4, 6, 8))
    counts = Counter()
    walk, judge = reducer._walk_arc, reducer.is_essential

    def counted_walk(*args):
        counts["walks"] += 1
        return walk(*args)

    def counted_judge(state, curve):
        counts["trials"] += 1
        return judge(state, curve)

    monkeypatch.setattr(reducer, "_walk_arc", counted_walk)
    monkeypatch.setattr(reducer, "is_essential", counted_judge)
    assert reduce(filling).passed
    assert counts["trials"] == SCALING_TRIALS[vertices]
    assert counts["walks"] <= 1.2 * counts["trials"], counts
