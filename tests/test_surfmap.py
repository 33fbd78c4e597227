"""Tests for polygon gluings and the canonical filling curve."""

import hashlib
import io
import json
import math
import pathlib
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillgeo import tolerances as tol
from fillgeo.errors import DomainError, InternalInvariantError, ValidationError
from fillgeo.polygeom import min_filling_length, side_length
from fillgeo.surfmap import (
    CombinatorialMap,
    build_map,
    canonical_report,
    canonical_word,
    from_interchange,
    gluing_svg,
    polygon_vertices,
    surface_report,
    to_interchange,
    trace_curve,
    verify_canonical,
)


def test_build_map_reads_string_and_sequence():
    torus = build_map("a b a' b'")
    assert build_map(["a", "b", "a'", "b'"]) == torus
    assert build_map(("a", "b", "a'", "b'")) == torus
    # a sequence's items are read as their str
    assert build_map([1, 2, "1'", "2'"]) == torus
    assert build_map(" x1\tx1'\n") == build_map(["x1", "x1'"])


def test_build_map_refuses_bad_words():
    for word, message in [
        ("", "gluing word is empty"),
        ([], "gluing word is empty"),
        ("a b a", "each label must appear exactly twice, violated by: b"),
        ("a a a a", "each label must appear exactly twice, violated by: a"),
        ("a a' b b' a''", "malformed side token \"a''\""),
        ("a'b a'b", "malformed side token \"a'b\""),  # apostrophe inside the label
        ("' '", "malformed side token \"'\""),
        # the first malformed token is refused before any count
        ("a b b a a q''", "malformed side token \"q''\""),
        # a label seen three times, next to one seen once
        ("x y' x x", "each label must appear exactly twice, violated by: x, y"),
        # a miscounted label is refused before a parallel pair
        ("a a b", "each label must appear exactly twice, violated by: b"),
        ("b' b' a c a c'", parallel_refusal(["a", "b"])),
    ]:
        with pytest.raises(ValidationError) as excinfo:
            build_map(word)
        assert str(excinfo.value) == message, word


def test_torus_word():
    report = surface_report(build_map("a b a' b'"))
    assert report["vertices"] == 1
    assert report["edges"] == 2
    assert report["faces"] == 1
    assert report["euler"] == 0
    assert report["genus"] == 1
    assert report["orientable"]
    assert report["curve_components"] == 2
    assert report["self_intersections"] == 1
    assert report["face_effective_degrees"] == [4]


def test_projective_plane_word():
    # both sides unreversed: a parallel pair, glued into a projective plane
    with pytest.raises(ValidationError) as excinfo:
        build_map("a a")
    assert str(excinfo.value) == parallel_refusal(["a"])


def test_sphere_word():
    report = surface_report(build_map("a a'"))
    assert report["euler"] == 2
    assert report["genus"] == 0
    assert report["orientable"]
    # valence-one vertices carry no strand structure
    assert report["curve_components"] is None
    assert report["self_intersections"] is None
    with pytest.raises(ValidationError):
        trace_curve(build_map("a a'"))


def test_canonical_word_g2():
    word = canonical_word(2)
    assert word == [
        "a6", "a3", "a1", "a4", "a6'", "a3'",
        "a5", "a1'", "a2", "a5'", "a4'", "a2'",
    ]


def test_canonical_word_shape():
    for g in (2, 3, 5, 9):
        word = canonical_word(g)
        assert len(word) == 8 * g - 4
        labels = [t.rstrip("'") for t in word]
        assert len(set(labels)) == 4 * g - 2
        primed = [t for t in word if t.endswith("'")]
        assert len(primed) == 4 * g - 2


def test_canonical_word_domain():
    for bad in (1, 0, -3, 2.0, True):
        with pytest.raises(DomainError):
            canonical_word(bad)


def _word_tokens(word):
    return word.split() if isinstance(word, str) else [str(t) for t in word]


def parallel_refusal(labels):
    """build_map's refusal of a word whose parallel pairs have these labels."""
    return ("a parallel side pair makes the surface non-orientable: each label "
            f"must appear once reversed, violated by: {', '.join(sorted(labels))}")


def parallel_labels(word):
    """The labels of a word whose two tokens are equal: both sides
    unreversed, or both reversed."""
    tokens = Counter(_word_tokens(word))
    return [token.rstrip("'") for token, count in tokens.items() if count == 2]


def dart_names(word):
    """build_map's dart names for a word it accepts: the e-th label L in
    order of first occurrence is edge e, with darts 2e named L+ and
    2e + 1 named L-; L+ lies at the start of L's first occurrence."""
    labels = dict.fromkeys(t.rstrip("'") for t in _word_tokens(word))
    return tuple(name for label in labels for name in (label + "+", label + "-"))


def test_canonical_g2_vertex_fans():
    cmap = build_map(canonical_word(2))
    names = dart_names(canonical_word(2))
    fans = {frozenset(names[d] for d in cyc) for cyc in cmap.vertices()}
    assert fans == {
        frozenset({"a6+", "a3-", "a1+", "a2+"}),
        frozenset({"a6-", "a3+", "a5+", "a4-"}),
        frozenset({"a1-", "a4+", "a2-", "a5-"}),
    }


def test_canonical_g2_curve_orbit():
    cmap = build_map(canonical_word(2))
    names = dart_names(canonical_word(2))
    index = {name: d for d, name in enumerate(names)}
    owner = cmap.vertex_of_dart()
    valence = [len(c) for c in cmap.vertices()]

    def succ(d):
        e = cmap.alpha[d]
        for _ in range(valence[owner[e]] // 2):
            e = cmap.sigma[e]
        return e

    orbit = [index["a6+"]]
    d = succ(orbit[0])
    while d != orbit[0]:
        orbit.append(d)
        d = succ(d)
    assert [names[d] for d in orbit] == [
        "a6+", "a5+", "a4+", "a3+", "a2+", "a1-",
    ]


def test_dart_tables_index_their_orbits():
    # two curves crossing twice on a torus: two square faces
    cmap = CombinatorialMap(
        dart_count=8, alpha=(4, 5, 6, 7, 0, 1, 2, 3), sigma=(1, 2, 3, 0, 5, 6, 7, 4)
    )
    for table, cycles in ((cmap.vertex_of_dart(), cmap.vertices()),
                          (cmap.face_of_dart(), cmap.faces())):
        assert all(d in cycles[table[d]] for d in range(cmap.dart_count))
    assert len(cmap.faces()) == 2


def test_strand_opposites_at_three_valent_vertices():
    # a theta graph: vertices (0 1 2) and (3 4 5), edges 0-3, 1-5, 2-4
    theta = dict(dart_count=6, alpha=(3, 5, 4, 0, 2, 1), sigma=(1, 2, 0, 4, 5, 3))
    cmap = CombinatorialMap(**theta, straight_corners=frozenset({0, 3}))
    assert cmap.strand_opposites() == (1, 0, None, 4, 3, None)
    with pytest.raises(ValidationError, match="exactly one straight corner"):
        CombinatorialMap(**theta).strand_opposites()
    # a five-valent vertex (0..4) and a marked three-valent one (5 6 7)
    five = CombinatorialMap(
        dart_count=8, alpha=(5, 6, 7, 4, 3, 0, 1, 2),
        sigma=(1, 2, 3, 4, 0, 6, 7, 5), straight_corners=frozenset({5}),
    )
    with pytest.raises(ValidationError, match="unsupported vertex valence 5"):
        five.strand_opposites()


def test_canonical_g2_report():
    report = surface_report(build_map(canonical_word(2)))
    assert report["vertices"] == 3
    assert report["edges"] == 6
    assert report["faces"] == 1
    assert report["euler"] == -2
    assert report["genus"] == 2
    assert report["orientable"]
    assert report["vertex_valences"] == [4, 4, 4]
    assert report["face_effective_degrees"] == [12]
    assert report["curve_components"] == 1
    assert report["self_intersections"] == 3


def test_verify_canonical_small_genera():
    for g in range(2, 13):
        rep = verify_canonical(g)
        assert rep.passed, rep.text()
        assert rep.details["failed_checks"] == []
        assert rep.details["vertices"] == 2 * g - 1
        assert rep.details["self_intersections"] == 2 * g - 1
        assert rep.details["geodesic_length"] == pytest.approx(
            min_filling_length(g), rel=1e-12
        )


def test_verify_canonical_negative_control():
    # unpriming one token glues that pair in parallel: refused
    word = canonical_word(2)
    word[4] = "a6"
    with pytest.raises(ValidationError) as excinfo:
        build_map(word)
    assert str(excinfo.value) == parallel_refusal(["a6"])
    # swapping the first two sides keeps the polygon, its side lengths
    # and the genus, but the glued boundary is two curves
    word = canonical_word(2)
    word[0], word[1] = word[1], word[0]
    rep = canonical_report(build_map(word), 2)
    assert not rep.passed
    assert rep.details["genus"] == 2
    assert rep.details["curve_components"] == 2
    assert rep.details["failed_checks"] == [
        "all_four_valent", "self_intersections", "single_component",
    ]


@pytest.mark.parametrize("g", [2, 3])
def test_all_reversed_is_the_only_orientable_pattern(g):
    # every choice of the labels whose second occurrence in the canonical
    # word is reversed: 2^(4g-2) words, 64 at g = 2 and 1,024 at g = 3
    tokens = [t.rstrip("'") for t in canonical_word(g)]
    labels = sorted(set(tokens))
    assert len(labels) == 4 * g - 2
    built = []
    for mask in range(1 << len(labels)):
        marked = {label for bit, label in enumerate(labels) if mask >> bit & 1}
        seen, word = set(), []
        for token in tokens:
            word.append(token + "'" if token in seen and token in marked else token)
            seen.add(token)
        try:
            build_map(word)
        except ValidationError as exc:
            assert str(exc) == parallel_refusal(set(labels) - marked), word
        else:
            built.append(word)
    assert built == [canonical_word(g)]


def test_canonical_report_matches_verify_canonical():
    for g in range(2, 7):
        rep = canonical_report(build_map(canonical_word(g)), g)
        assert rep.passed, rep.text()
        assert rep.as_dict() == verify_canonical(g).as_dict()


def test_canonical_report_names_the_failed_checks():
    path = pathlib.Path(__file__).parent / "data" / "canonical_g3.json"
    cmap = from_interchange(json.loads(path.read_text()))
    assert canonical_report(cmap, 3).passed
    rep = canonical_report(cmap, 2)
    assert not rep.passed
    assert rep.details["failed_checks"] == [
        "all_four_valent",
        "edge_count",
        "face_effective_degree",
        "genus",
        "self_intersections",
        "vertex_count",
    ]


def test_interchange_round_trip():
    cmap = build_map(canonical_word(3))
    data = to_interchange(cmap)
    assert data["dart_count"] == cmap.dart_count
    rebuilt = from_interchange(data)
    assert rebuilt.alpha == cmap.alpha
    assert rebuilt.sigma == cmap.sigma
    a = surface_report(cmap)
    b = surface_report(rebuilt)
    assert a == b


def test_interchange_rejects_malformed():
    with pytest.raises(ValidationError):
        from_interchange({"dart_count": 4, "alpha": [1, 0, 3], "sigma": [0, 1, 2, 3]})
    with pytest.raises(ValidationError):
        from_interchange({"alpha": [1, 0], "sigma": [0, 1]})
    # alpha with a fixed point
    with pytest.raises(ValidationError):
        from_interchange({"dart_count": 2, "alpha": [0, 1], "sigma": [1, 0]})
    # sigma not a permutation
    with pytest.raises(ValidationError):
        from_interchange({"dart_count": 2, "alpha": [1, 0], "sigma": [0, 0]})


def test_map_validation():
    for fields in [
        dict(dart_count=2, alpha=(1, 0), sigma=(1, 0), straight_corners=frozenset({5})),
        dict(dart_count=1, alpha=(0,), sigma=(0,)),
        # entries that are no int, and tables that are no tuple or
        # frozenset: a list would leave the map unhashable and mutable
        dict(dart_count=2, alpha=(1, None), sigma=(0, 1)),
        dict(dart_count="2", alpha=(1, 0), sigma=(0, 1)),
        dict(dart_count=2, alpha=(True, False), sigma=(0, 1)),
        dict(dart_count=2, alpha=[1, 0], sigma=(0, 1)),
        dict(dart_count=2, alpha=(1, 0), sigma=[0, 1]),
        dict(dart_count=2, alpha=(1, 0), sigma=(0, 1), straight_corners={0}),
    ]:
        with pytest.raises(ValidationError):
            CombinatorialMap(**fields)
    # every map fixture comes back hashable, and no field can be assigned
    maps = []
    for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.json")):
        try:
            maps.append(from_interchange(json.loads(path.read_text())))
        except ValidationError:
            continue
    assert len(maps) == 24
    for cmap in maps:
        hash(cmap)
    for name in ("dart_count", "alpha", "sigma", "straight_corners"):
        with pytest.raises(AttributeError):
            setattr(maps[0], name, getattr(maps[0], name))


@pytest.mark.parametrize("alpha, sigma, name", [
    ((1, 0, 3, 3), (0, 1, 2, 3), "alpha"),
    ((1, 0, 3, 2), (0, 1, 2, 4), "sigma"),
    ((1, 0, 3), (0, 1, 2, 3), "alpha"),
    ((1, 0, 3, 2), (1, 2, 3, 0, 4), "sigma"),
])
def test_permutation_check_names_the_table(alpha, sigma, name):
    with pytest.raises(ValidationError, match=rf"^{name} is not a permutation of 0\.\.3$"):
        CombinatorialMap(dart_count=4, alpha=alpha, sigma=sigma)


def test_disconnected_map_rejected():
    cmap = from_interchange(
        {"dart_count": 4, "alpha": [1, 0, 3, 2], "sigma": [1, 0, 3, 2]}
    )
    with pytest.raises(ValidationError):
        surface_report(cmap)


def disk_distance(p, q):
    """Hyperbolic distance between two points of the unit disk."""
    (px, py), (qx, qy) = p, q
    dp = 1.0 - (px * px + py * py)
    dq = 1.0 - (qx * qx + qy * qy)
    if dp <= 0.0 or dq <= 0.0:
        raise DomainError("points must lie inside the unit disk")
    return math.acosh(1.0 + 2.0 * ((px - qx) ** 2 + (py - qy) ** 2) / (dp * dq))


def test_polygon_vertices_degenerate():
    points = polygon_vertices(4, math.pi / 2.0)
    assert points == [(0.0, 0.0)] * 4


def test_polygon_vertices_right_angled_12gon():
    points = polygon_vertices(12, math.pi / 2.0)
    side = side_length(12, math.pi / 2.0)
    for k in range(12):
        d = disk_distance(points[k], points[(k + 1) % 12])
        assert d == pytest.approx(side, abs=1e-9)
    radii = [math.hypot(x, y) for x, y in points]
    assert max(radii) - min(radii) < 1e-12
    assert points[0][1] == 0.0


def test_polygon_vertices_domain():
    with pytest.raises(DomainError):
        polygon_vertices(2, 1.0)
    with pytest.raises(DomainError):
        polygon_vertices(4.5, 1.0)
    with pytest.raises(DomainError):
        polygon_vertices(12, 0.0)
    for n in (math.nan, math.inf, None, "5"):
        with pytest.raises(DomainError):
            polygon_vertices(n, 1.0)


def test_disk_distance():
    assert disk_distance((0.0, 0.0), (0.0, 0.0)) == 0.0
    d = disk_distance((0.3, 0.0), (-0.2, 0.1))
    assert d == disk_distance((-0.2, 0.1), (0.3, 0.0))
    assert d > math.hypot(0.5, 0.1)  # hyperbolic beats euclidean
    with pytest.raises(DomainError):
        disk_distance((1.0, 0.0), (0.0, 0.0))


def svg_text(word):
    out = io.StringIO()
    assert gluing_svg(word, out) is None
    return out.getvalue()


def polylines(svg):
    """The points of each <polyline> of an SVG picture, as (x, y) pairs."""
    return [
        [tuple(map(float, point.split(","))) for point in points.split()]
        for points in re.findall(r'<polyline points="([^"]*)"', svg)
    ]


# points per drawn side: the fewest that keep each segment within
# 1/20 px of its arc
SIDE_POINTS = {2: 24, 3: 22, 40: 8, 500: 3, 2000: 2}


def test_gluing_svg():
    svg = svg_text(canonical_word(2))
    assert svg.startswith("<svg")
    assert svg.endswith("</svg>\n")
    assert svg.count("<polyline") == 12
    assert re.findall(r">([^<]*)</text>", svg) == canonical_word(2)
    for g, points in SIDE_POINTS.items():
        counts = {len(side) for side in polylines(svg_text(canonical_word(g)))}
        assert counts == {points}, g
    # a right-angled square is degenerate: single marker, no sides
    degenerate = svg_text("a b a' b'")
    assert "<polyline" not in degenerate
    assert "<circle" in degenerate


# the SVG prints coordinates with five decimals
PRINTED = 1e-5


def check_svg_geometry(g, sides=None):
    """Check the first sides drawn sides (all when None) of the genus-g
    picture against the right-angled regular (8g - 4)-gon."""
    svg = svg_text(canonical_word(g))
    n = 8 * g - 4
    # 1/20 px of the picture: its viewBox width over its width in px
    view_width = float(re.search(r'viewBox="\S+ \S+ (\S+) \S+"', svg).group(1))
    px = view_width / float(re.search(r'width="(\d+)"', svg).group(1))
    assert tol.SVG_SAG_TOL == pytest.approx(px / 20)
    drawn = polylines(svg)
    assert len(drawn) == n
    assert len({len(side) for side in drawn}) == 1
    corners = [(x, -y) for x, y in polygon_vertices(n, math.pi / 2.0)]
    rho = math.hypot(*corners[0])
    # each side's circle is orthogonal to |z| = 1: its centre lies on the
    # side's bisector at distance t, with r^2 = t^2 - 1
    t = (rho * rho + 1.0) / (2.0 * rho * math.cos(math.pi / n))
    r = math.sqrt(t * t - 1.0)
    for k, side in enumerate(drawn[:sides]):
        for end, corner in ((side[0], corners[k]), (side[-1], corners[(k + 1) % n])):
            assert math.dist(end, corner) <= PRINTED, (g, k)
        phi = math.pi * (2 * k + 1) / n
        centre = (t * math.cos(phi), -t * math.sin(phi))
        for point in side:
            assert abs(math.dist(point, centre) - r) <= PRINTED, (g, k, point)
        for p, q in zip(side, side[1:]):
            half = math.dist(p, q) / 2.0
            sagitta = r - math.sqrt(max(0.0, r * r - half * half))
            assert sagitta <= px / 20 + PRINTED, (g, k, sagitta)


def test_svg_sides_lie_on_their_geodesics():
    for g in range(2, 41):
        check_svg_geometry(g)


def test_svg_sides_lie_on_their_geodesics_at_genus_2000():
    check_svg_geometry(2000, sides=200)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=120)
def test_random_gluings_close_up(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 8)
    tokens = []
    for i in range(k):
        style = rng.choice(("same", "same'", "opposite"))
        if style == "same":
            tokens += [f"e{i}", f"e{i}"]
        elif style == "same'":
            tokens += [f"e{i}'", f"e{i}'"]
        else:
            tokens += [f"e{i}", f"e{i}'"]
    rng.shuffle(tokens)
    parallel = parallel_labels(tokens)
    if parallel:
        with pytest.raises(ValidationError) as excinfo:
            build_map(tokens)
        assert str(excinfo.value) == parallel_refusal(parallel)
        return
    report = surface_report(build_map(tokens))
    assert report["faces"] == 1
    assert report["euler"] == report["vertices"] - report["edges"] + 1
    assert report["edges"] == k
    assert report["euler"] % 2 == 0
    assert report["genus"] >= 0
    assert sum(report["vertex_valences"]) == 2 * k


def _pinned_words():
    """400 seeded gluing words: primed and unprimed labels, orientable and
    not, and every tenth one refused by the parser."""
    rng = random.Random(2026)
    words = []
    for index in range(400):
        k = rng.randint(1, 12)
        orientable = rng.random() < 0.5
        tokens = []
        for i in range(k):
            label = rng.choice(("a", "b", "x_", "s")) + str(i)
            if orientable:
                tokens += rng.sample((label, label + "'"), 2)
            else:
                tokens += [label + rng.choice(("", "'")) for _ in range(2)]
        rng.shuffle(tokens)
        if index % 10 == 9:
            flaw = rng.choice(("drop", "repeat", "malformed", "empty"))
            if flaw == "drop":
                tokens.pop()
            elif flaw == "repeat":
                tokens.append(tokens[0])
            elif flaw == "malformed":
                tokens[rng.randrange(len(tokens))] = "q''"
            else:
                tokens = []
        words.append(tokens)
    return words


# build_map over _pinned_words() without the 141 words that have a
# parallel pair: 40 refused, 219 built
PINNED_BUILD_MAP_DIGEST = "f300b2d757189dcc916f9c87378a2639df1fc912e05661e538dc2d36169e4af7"


def test_build_map_tables_pinned():
    """build_map's tables (alpha, sigma, dart names), or the exception
    refusing each word, are byte-identical to the pinned digest over
    the seeded corpus; a word with a parallel pair is refused and named."""
    outcomes = []
    parallel = 0
    for tokens in _pinned_words():
        try:
            cmap = build_map(tokens)
        except (ValidationError, InternalInvariantError) as exc:
            if "non-orientable" in str(exc):
                assert str(exc) == parallel_refusal(parallel_labels(tokens)), tokens
                parallel += 1
            else:
                outcomes.append((type(exc).__name__, str(exc)))
            continue
        outcomes.append((cmap.alpha, cmap.sigma, dart_names(tokens)))
    refused = sum(len(o) == 2 for o in outcomes)
    assert (refused, parallel, len(outcomes) - refused) == (40, 141, 219)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == PINNED_BUILD_MAP_DIGEST


def _reference_parse(word):
    """A gluing word as (label, reversed) sides, checked as a whole: the
    separate parse build_map once had, kept for the oracle below."""
    tokens = _word_tokens(word)
    if not tokens:
        raise ValidationError("gluing word is empty")
    sides = [(t[:-1], True) if t.endswith("'") else (t, False) for t in tokens]
    labels = [label for label, _ in sides]
    for token, label in zip(tokens, labels):
        if not label or "'" in label:
            raise ValidationError(f"malformed side token {token!r}")
    counts = Counter(labels)
    bad = sorted(label for label, c in counts.items() if c != 2)
    if bad:
        raise ValidationError(
            f"each label must appear exactly twice, violated by: {', '.join(bad)}"
        )
    return sides


def _reference_build_map(word):
    """build_map as it was written per ray, after a separate parse, kept
    as the oracle for the per-side walk: returns (alpha, sigma,
    orientable, dart names)."""
    sides = _reference_parse(word)
    n = len(sides)
    positions = {}
    for index, (label, _) in enumerate(sides):
        positions.setdefault(label, []).append(index)

    # ray 2k is the start of side k, ray 2k+1 its end
    pair_ray = [None] * (2 * n)
    for i, j in positions.values():
        if sides[i][1] == sides[j][1]:
            links = ((2 * i, 2 * j), (2 * i + 1, 2 * j + 1))
        else:
            links = ((2 * i, 2 * j + 1), (2 * i + 1, 2 * j))
        for r, s in links:
            pair_ray[r] = s
            pair_ray[s] = r

    dart_of_ray = [None] * (2 * n)
    names = []
    for e, (label, (i, _)) in enumerate(positions.items()):
        for ray, d in ((2 * i, 2 * e), (2 * i + 1, 2 * e + 1)):
            dart_of_ray[ray] = dart_of_ray[pair_ray[ray]] = d
        names += (label + "+", label + "-")

    # ray r is at corner ((r + 1) // 2) % n, as its in-ray when r is odd
    sigma = [None] * n
    visited = [False] * n
    orientable = True
    for start in range(n):
        if visited[start]:
            continue
        cycle = []
        corner, entered_in = start, True
        while True:
            if visited[corner]:
                raise InternalInvariantError(
                    f"corner {corner} visited twice while walking a vertex fan"
                )
            visited[corner] = True
            if not entered_in:
                orientable = False
            exit_ray = 2 * corner if entered_in else (2 * corner - 1) % (2 * n)
            cycle.append(dart_of_ray[exit_ray])
            ray = pair_ray[exit_ray]
            corner, entered_in = ((ray + 1) // 2) % n, ray % 2 == 1
            if corner == start and entered_in:
                break
        for d, successor in zip(cycle, cycle[1:] + cycle[:1]):
            if sigma[d] is not None:
                raise InternalInvariantError(f"dart {d} appears in two vertex fans")
            sigma[d] = successor

    alpha = tuple(d ^ 1 for d in range(n))
    cmap = CombinatorialMap(dart_count=n, alpha=alpha, sigma=tuple(sigma))
    if orientable and len(cmap.faces()) != 1:
        raise InternalInvariantError(
            "orientable polygon gluing must trace back to a single face"
        )
    return alpha, tuple(sigma), orientable, tuple(names)


def _random_words(count, seed):
    """count seeded words of 1..40 labels, each pair unreversed, reversed
    or mixed at random, so most words with several pairs are not
    orientable, and a quarter of them orientable by construction."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        k = rng.randint(1, 40)
        orientable = rng.random() < 0.25
        tokens = []
        for i in range(k):
            if orientable:
                tokens += rng.sample((f"c{i}", f"c{i}'"), 2)
            else:
                tokens += [f"c{i}" + rng.choice(("", "'")) for _ in range(2)]
        rng.shuffle(tokens)
        words.append(tokens)
    return words


def _outcome(build, word):
    try:
        return build(word)
    except (ValidationError, InternalInvariantError) as exc:
        return type(exc).__name__, str(exc)


def _rebuilt(cmap):
    """cmap made again by the public constructor, which checks its tables."""
    return CombinatorialMap(
        dart_count=cmap.dart_count,
        alpha=cmap.alpha,
        sigma=cmap.sigma,
        straight_corners=cmap.straight_corners,
    )


def test_built_maps_pass_the_public_checks():
    """build_map makes its maps without the constructor's checks: each one
    passes them, comes back unchanged from its interchange form, and
    surface_report's one-face rule agrees with the walk of is_connected."""
    built = 0
    for word in _pinned_words() + [canonical_word(g) for g in range(2, 41)]:
        try:
            cmap = build_map(word)
        except ValidationError:
            continue
        built += 1
        assert _rebuilt(cmap) == cmap
        assert from_interchange(to_interchange(cmap)) == cmap
        assert len(cmap.faces()) == 1
        assert cmap.is_connected()
        assert surface_report(cmap)["faces"] == 1
    assert built == 219 + 39


def test_two_tori_on_disjoint_darts_are_disconnected():
    # two faces: surface_report walks the map, as for every map of more
    # than one face
    torus = build_map("a b a' b'")
    n = torus.dart_count
    two = CombinatorialMap(
        dart_count=2 * n,
        alpha=torus.alpha + tuple(d + n for d in torus.alpha),
        sigma=torus.sigma + tuple(d + n for d in torus.sigma),
    )
    assert len(two.faces()) == 2
    with pytest.raises(ValidationError, match="map is disconnected"):
        surface_report(two)


def test_build_map_matches_the_per_ray_reference():
    """The per-side walk gives the per-ray construction's refusals, and
    its alpha and sigma where that construction finds the surface
    orientable, with darts that carry the names dart_names derives;
    where it finds a non-orientable surface, build_map refuses the
    word's parallel pairs."""
    words = _pinned_words()
    words += [canonical_word(g) for g in range(2, 41)]
    words += _random_words(3000, 29)
    kinds = {"refused": 0, "orientable": 0, "non-orientable": 0}
    for word in words:
        expected = _outcome(_reference_build_map, word)

        def built(word):
            cmap = build_map(word)
            return cmap.alpha, cmap.sigma, dart_names(word)

        if len(expected) == 2:
            kinds["refused"] += 1
        elif expected[2]:
            kinds["orientable"] += 1
            expected = expected[:2] + expected[3:]
        else:
            kinds["non-orientable"] += 1
            expected = ("ValidationError", parallel_refusal(parallel_labels(word)))
        assert _outcome(built, word) == expected, word
    assert min(kinds.values()) >= 40, kinds
