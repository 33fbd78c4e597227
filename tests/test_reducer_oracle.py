"""The reducer's live complement against a from-scratch oracle.

``reduce`` keeps one complement state per run, refines its map in place
when the split rule fires, and judges each candidate cutting curve from
the faces and vertices it touches.  The harness reads the live map
through the state's ``freeze``.  The oracle here
shares no code with that state: it traces faces as orbits of
sigma∘alpha, glues them across edges outside the subgraph with its own
union-find, counts V - E + F per region (interior vertices and corner
gaps, interior edges and boundary sides, faces) and walks the boundary
of every disk.  A curve is committed by ``reference_commit``, which
refines a bare ``reducer._MutableMap`` and builds no regions; judging
the result is the oracle's own work.  The refinement is the reducer's
own split rule (``_refine``), so these tests cannot see a changed split
decision: the pinned certificate digests of ``test_reduce_digests.py``
and the corner postcondition checked there on every pinned certificate
guard it.
Curve material on a disk's boundary is what the commit adds to the
subgraph, except the darts on the path that replaced a subdivided old
subgraph edge, which stay old boundary; the oracle finds that path
from the maps before and after the commit alone.

At every step of a reduction, and right after each refinement of a
state, the live state's face partition, its per-pair counts of edges
outside the subgraph, its region partition, Euler characteristics,
candidate germs and ``fills`` must match the oracle, and every clean
candidate germ (one the scan skips unwalked) must have the walk the
state holds for it and be one the oracle rejects; every candidate
tried must get the oracle's essential/inessential verdict.  The
premise of the clean-germ index is checked too: a commit that changes
a face of the disk piece that rejected a clean germ (its darts, their
edges or its Euler share) must void that germ, and a germ that stays
clean after a commit changed the germs at one of its curve's vertices
must still hold: the oracle rejects its curve.  No clean germ's walk
is a one-vertex arc (kind V with both ends at one vertex).  The germs
a commit makes clean itself, the stubs its displaced ends leave off the
subgraph, must each be indexed by exactly the faces of a disk piece of
the stub's cut with at most two changes, found by the oracle's own
region code.  A complement
built from a caller's subgraph must match the oracle too, and a commit
with an end displaced must cut the region's old faces into the pieces
its trial's cut did, which the index's argument assumes.  The inputs are
the 4-valent 48-vertex maps and the {4,6,8}-valent maps of
``test_reduce_digests.py``, with four more mixed maps that try arcs
with both ends at one vertex and an end displaced (trial refines and
cuts every one-vertex arc on a copy); the split rule fires on many of
the mixed maps.  The fixture
``second_region_face`` refines its map into a face of new darts alone
while the complement has two non-disk regions, in the second one.
"""

import json
import pathlib
import random
from collections import Counter

import pytest

from conftest import random_map
from fillgeo import reducer, surfmap
from fillgeo.errors import InternalInvariantError, ValidationError
from test_reduce_digests import SEEDS, four_valent, mixed
from test_reducer import torus_grid, torus_two_curves


def _orbit_index(n, step):
    """Orbit number of every dart under step, orbits numbered by least dart."""
    index = [-1] * n
    count = 0
    for start in range(n):
        d = start
        while index[d] < 0:
            index[d] = count
            d = step(d)
        if index[start] == count:
            count += 1
    return index, count


def oracle_complement(cmap, g):
    """(face of each dart, region of each dart, Euler characteristic of
    each region)."""
    n, alpha, sigma = cmap.dart_count, cmap.alpha, cmap.sigma
    face, faces = _orbit_index(n, lambda d: sigma[alpha[d]])
    vertex, vertices = _orbit_index(n, lambda d: sigma[d])
    parent = list(range(faces))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for d in range(n):
        if d not in g:
            parent[root(face[d])] = root(face[alpha[d]])
    region = [root(face[d]) for d in range(n)]
    euler = {}
    for d in range(n):
        r = region[d]
        if d not in g and d < alpha[d]:
            euler[r] = euler.get(r, 0) - 1  # interior edge
        if d in g:
            euler[r] = euler.get(r, 0) - 1  # boundary side
            euler[region[sigma[d]]] = euler.get(region[sigma[d]], 0) + 1  # gap after d
    for f in range(faces):
        r = root(f)
        euler[r] = euler.get(r, 0) + 1
    interior = {}
    for d in range(n):
        interior.setdefault(vertex[d], []).append(d)
    for darts in interior.values():
        if not any(d in g for d in darts):
            euler[region[darts[0]]] += 1  # interior vertex
    return face, region, euler


def oracle_boundary_cycles(cmap, g):
    """Boundary cycles of the complement: from d, pivot at the far end."""
    alpha, sigma = cmap.alpha, cmap.sigma

    def successor(d):
        w = sigma[alpha[d]]
        while w not in g:
            w = sigma[w]
        return w

    seen = set()
    for start in sorted(g):
        if start in seen:
            continue
        cycle = []
        d = start
        while d not in seen:
            seen.add(d)
            cycle.append(d)
            d = successor(d)
        yield cycle


def old_boundary(cmap, new_map, g):
    """Darts of the refined map on the paths that replaced old subgraph edges.

    A commit may subdivide an old subgraph edge at new three-valent
    vertices, through which the edge runs on across the straight
    corner.  From each old subgraph dart the path leaves along its new
    alpha and crosses every new vertex until it reaches an old dart.
    """
    n, alpha, sigma = cmap.dart_count, new_map.alpha, new_map.sigma
    straight = new_map.straight_corners
    before = {sigma[d]: d for d in range(new_map.dart_count)}
    old = set()
    for d in g:
        x = alpha[d]
        while x >= n:
            y = sigma[x] if x in straight else before[x]
            assert len({x, y} & straight) == 1, "an old edge runs straight on"
            old.update((x, y))
            x = alpha[y]
    return old


def reference_commit(cmap, g, curve):
    """The refined map and subgraph after committing curve: the split
    rule alone, on the bare map tables (_MutableMap)."""
    live = reducer._MutableMap(cmap, g)
    added = live._refine(curve.kind, curve.darts)
    return live.freeze(), frozenset(live.g | added)


def oracle_essential(cmap, g, curve):
    """Commit the curve, then look for a disk whose boundary is all curve
    or one run of curve against one run of old boundary.

    Curve material is what the commit adds to the subgraph, except the
    halves of a subdivided old subgraph edge: they are old boundary.
    Returns (essential, the refined map).
    """
    new_map, new_g = reference_commit(cmap, g, curve)
    added = new_g - set(g) - old_boundary(cmap, new_map, g)
    _, region, euler = oracle_complement(new_map, new_g)
    cycles_in = {}
    for cycle in oracle_boundary_cycles(new_map, new_g):
        cycles_in.setdefault(region[cycle[0]], []).append(cycle)
    for r, value in euler.items():
        if value != 1:
            continue
        assert len(cycles_in[r]) == 1, "a disk has one boundary cycle"
        labels = [d in added for d in cycles_in[r][0]]
        transitions = sum(labels[i] != labels[i - 1] for i in range(len(labels)))
        if any(labels) and (all(labels) or transitions == 2):
            return False, new_map
    return True, new_map


def check_state(state):
    cmap, g = state.freeze(), state.g
    n, alpha = cmap.dart_count, cmap.alpha
    face, region, euler = oracle_complement(cmap, g)
    live_face, faces = state.face_of, max(face) + 1
    assert len(live_face) == n and len(state.weight) == faces, "face count differs"
    assert len(set(zip(live_face, face))) == faces, "face partition differs"
    across = Counter((live_face[d], live_face[alpha[d]]) for d in range(n) if d not in g)
    assert {
        (a, b): count for a, row in enumerate(state.adjacent) for b, count in row.items()
    } == {(a, b): count for (a, b), count in across.items() if a != b}, (
        "edge counts between faces differ"
    )
    pairs = set(zip([state.face_region[f] for f in live_face], region))
    assert len(pairs) == len(state.euler2) == len(euler), "region partition differs"
    assert len({live for live, _ in pairs}) == len(pairs), "region partition differs"
    for live, r in pairs:
        assert state.euler2[live] == 2 * euler[r], "Euler characteristic differs"
    assert state.fills == all(value == 1 for value in euler.values())
    owner = cmap.vertex_of_dart()
    on_g = {owner[d] for d in g}
    assert state.candidates == [
        d for d in range(cmap.dart_count)
        if d not in g and owner[d] in on_g and euler[region[d]] != 1
    ]
    clean_candidates(state)


def clean_candidates(state):
    """The clean candidate germs, each checked to keep its walk."""
    clean = [x for x in state.candidates if x in state.clean]
    for x in clean:
        assert walk_from(state, x) == state.clean[x], ("a clean germ's walk changed", x)
    return clean


def check_clean(state):
    """Every clean candidate germ keeps its walk, and the oracle rejects
    its curve.  Returns the clean candidates."""
    clean = clean_candidates(state)
    for x in clean:
        darts, kind = state.clean[x]
        curve = reducer.CuttingCurve(darts=darts, kind=kind)
        essential, _ = oracle_essential(state.freeze(), state.g, curve)
        assert not essential, ("a clean germ's curve is essential", curve)
    return clean


def walk_from(state, x):
    """The arc or lasso the state walks from germ x now."""
    return reducer._walk_arc(state.alpha, state.opp, state.owner, state.gcount, x)


def touchable(state):
    """What a commit may change that a clean germ depends on: per face,
    its Euler share and its darts, and per vertex its germs, each dart
    with its subgraph membership and alpha."""
    g, alpha = state.g, state.alpha
    faces = {}
    for d, f in enumerate(state.face_of):
        faces.setdefault(f, [state.weight[f]]).append((d, d in g, alpha[d]))
    vertices = [[(x, x in g, alpha[x]) for x in cycle] for cycle in state.cycles]
    return faces, vertices


def check_stale(state, before, clean, pieces):
    """Every germ of clean (the clean germs before a commit) whose piece
    the commit changed is voided, and every one that stays clean although
    the commit changed the germs at one of its curve's vertices still
    holds where it can be used: when it is a candidate, the oracle
    rejects its curve.  pieces maps each germ to the faces of the disk
    piece that last made it clean.  Returns how many such germs were
    checked."""
    faces, vertices = touchable(state)
    moved_faces = {f for f, view in before[0].items() if faces[f] != view}
    moved_vertices = {v for v, view in enumerate(before[1]) if vertices[v] != view}
    alpha_before = {x: a for view in before[1] for x, _, a in view}
    owner, checked = state.owner, 0
    for x, (darts, kind) in clean.items():
        if moved_faces.intersection(pieces[x]):
            assert x not in state.clean, ("a changed piece's germ stayed clean", darts)
            continue
        curve_vertices = {owner[y] for d in darts for y in (d, alpha_before[d])}
        if not moved_vertices.intersection(curve_vertices) or x not in state.clean:
            continue
        if x in state.candidates:
            curve = reducer.CuttingCurve(darts=darts, kind=kind)
            essential, _ = oracle_essential(state.freeze(), state.g, curve)
            assert not essential, ("a clean germ of a moved vertex is essential", curve)
            checked += 1
    return checked


def recording_pieces(monkeypatch):
    """Record, per germ, the faces of the disk piece that last made it
    clean, and log each germ made clean with its piece, in order.  A
    state and its copies share the record: a copy is made in a trial,
    and either it is dropped with its cut or it becomes the next state
    and the one it was made from is scanned no more, so the last piece
    recorded for a germ is the one the state in use holds."""
    pieces, log = {}, []
    clean = reducer._Complement._clean

    def recorded(self, kind, darts, piece):
        clean(self, kind, darts, piece)
        if darts[0] in self.clean:
            pieces[darts[0]] = frozenset(piece)
            log.append((darts[0], pieces[darts[0]]))

    monkeypatch.setattr(reducer._Complement, "_clean", recorded)
    return pieces, log


def commit_stubs(cut, alpha_before, after):
    """The stubs a commit leaves: the ends of its curve that stay off
    the subgraph although their edge was cut short (their alpha changed)."""
    darts = cut.curve.darts
    ends = {darts[0], alpha_before[darts[-1]]}
    return {x for x in ends if x not in after.g and after.alpha[x] != alpha_before[x]}


def check_marked(after, cut, alpha_before, marks):
    """Every germ a commit made clean (marks, with the faces of their
    pieces) is a stub of its commit, clean with the one-edge walk
    ((germ,), "V")."""
    stubs = commit_stubs(cut, alpha_before, after)
    for x, _ in marks:
        assert x in stubs, ("a commit made a germ other than its stubs clean", x)
        assert after.clean[x] == ((x,), "V"), after.clean[x]


def check_released(after, cut, alpha_before, marks, faces, arrivals):
    """After a commit, each of faces and arrivals indexes exactly the
    stubs the commit marked (marks, see check_marked) under it: every
    germ that was clean before the commit is released from them, and
    every germ still indexed there is a stub of this commit, held once
    under each face of its piece and under its arrival.  Returns how
    many entries the stubs hold there."""
    check_marked(after, cut, alpha_before, marks)
    held = 0
    for index, keys, holds in (
        (after.clean_by_face, faces, lambda f, x, piece: f in piece),
        (after.clean_by_arrival, arrivals, lambda a, x, piece: after.alpha[x] == a),
    ):
        for key in keys:
            stubs = Counter(x for x, piece in marks if holds(key, x, piece))
            assert Counter(index.get(key, ())) == stubs, ("a changed key still indexes", key)
            held += sum(stubs.values())
    return held


def check_stub_piece(state, x, piece):
    """The piece that marked stub x clean is exactly the face set of a
    disk piece of the stub's cut with at most two changes, as the
    oracle's region code finds it on the stub attached directly."""
    cmap = state.freeze()
    g = state.g | {x, state.alpha[x]}
    face, region, euler = oracle_complement(cmap, g)
    inside = [d for d, f in enumerate(state.face_of) if f in piece]
    regions = {region[d] for d in inside}
    assert len(regions) == 1, ("a stub's piece is not one piece of its cut", x, piece)
    (r,) = regions
    assert {face[d] for d in inside} == {face[d] for d, q in enumerate(region) if q == r}, (
        "a stub's piece is not a whole piece of its cut", x)
    assert euler[r] == 1, ("a stub's piece is no disk", x)
    (cycle,) = [c for c in oracle_boundary_cycles(cmap, g) if region[c[0]] == r]
    labels = [d in (x, state.alpha[x]) for d in cycle]
    transitions = sum(labels[i] != labels[i - 1] for i in range(len(labels)))
    assert any(labels) and transitions <= 2, ("a stub's piece has more changes", x)


@pytest.fixture
def watched(monkeypatch):
    """Check every state, every refinement and every trial of the
    reductions run under it, every clean germ before each scan and
    every stub a commit marks clean (check_stub_piece)."""
    seen = {"states": 0, "trials": 0, "essential": 0, "split": 0, "one_vertex": 0,
            "refined": 0, "skipped": 0, "new_face_later_region": 0,
            "moved_vertex_fresh": 0, "stubs": 0, "stubs_skipped": 0}
    live = reducer._Complement
    original = {name: getattr(live, name) for name in ("trial", "_refine")}
    find, commit = reducer.find_cutting_curve, reducer.add_cutting_curve
    pieces, log = recording_pieces(monkeypatch)
    # germs whose last clean spell a commit's stub marking began
    stubs = set()

    def find_cutting_curve(state):
        # the scan skips the clean candidates below the germ it finds,
        # each checked here with its walk and the oracle's verdict
        check_state(state)
        seen["states"] += 1
        clean = check_clean(state)

        def skip(skipped):
            seen["skipped"] += len(skipped)
            seen["stubs_skipped"] += len(stubs.intersection(skipped))

        try:
            cut = find(state)
        except InternalInvariantError:
            skip(clean)
            raise
        skip([x for x in clean if x < cut.curve.darts[0]])
        return cut

    def add_cutting_curve(state, cut):
        before, clean = touchable(state), dict(state.clean)
        alpha, marked = list(state.alpha), len(log)
        state = commit(state, cut)
        seen["moved_vertex_fresh"] += check_stale(state, before, clean, pieces)
        check_state(state)
        seen["states"] += 1
        marks = log[marked:]
        check_marked(state, cut, alpha, marks)
        for x, piece in marks:
            check_stub_piece(state, x, piece)
            stubs.add(x)
        seen["stubs"] += len(marks)
        return state

    def refine(self, kind, darts):
        n = len(self.alpha)
        added = original["_refine"](self, kind, darts)
        if len(self.alpha) > n:
            check_state(self)
            seen["refined"] += 1
            old_faces = {self.face_of[x] for x in range(n)}
            seen["new_face_later_region"] += sum(
                self.face_region[f] != 0 for f in set(self.face_of[n:]) - old_faces
            )
        return added

    def trial(self, curve):
        cut = original["trial"](self, curve)
        stubs.discard(curve.darts[0])
        cmap = self.freeze()
        essential, new_map = oracle_essential(cmap, self.g, curve)
        assert (cut is not None) == essential, curve
        seen["trials"] += 1
        seen["essential"] += essential
        seen["split"] += new_map.dart_count > cmap.dart_count
        seen["one_vertex"] += one_vertex_displaced(cmap, curve, new_map)
        return cut

    monkeypatch.setattr(reducer, "find_cutting_curve", find_cutting_curve)
    monkeypatch.setattr(reducer, "add_cutting_curve", add_cutting_curve)
    monkeypatch.setattr(live, "trial", trial)
    monkeypatch.setattr(live, "_refine", refine)
    return seen


# Mixed maps whose reductions try arcs with both ends at one vertex and
# an end displaced, which trial judges on a refined copy, as it judges
# every one-vertex arc.  Judged as their
# direct attachment, 169, 342 and 368 leave a face of degree 3 in the
# certificate; with the halves of the subdivided landing edge counted as
# curve material, the reduction of 50 raises InternalInvariantError.
ONE_VERTEX_SEEDS = (50, 169, 342, 368)
# Mixed maps whose reductions reject a one-vertex arc with no end
# displaced on the live state, by a piece split off the region: an
# index that made such arcs clean would hold these.
LIVE_ONE_VERTEX_SEEDS = (88, 330)


def one_vertex_displaced(cmap, curve, new_map):
    """Whether a commit displaced an end of an arc with both ends at one vertex."""
    owner = cmap.vertex_of_dart()
    return (
        curve.kind == "V"
        and owner[curve.darts[0]] == owner[cmap.alpha[curve.darts[-1]]]
        and new_map.dart_count > cmap.dart_count
    )


def is_one_vertex(state, kind, darts):
    """Whether a curve is an arc with both ends at one vertex of the state."""
    return kind == "V" and state.owner[darts[0]] == state.owner[state.alpha[darts[-1]]]


def displaces(state, curve):
    """Whether the split rule displaces an end of curve on the state:
    refining a bare copy of its map for the curve adds darts."""
    new_map, _ = reference_commit(state.freeze(), state.g, curve)
    return new_map.dart_count > len(state.alpha)


def reduce_all(inputs):
    for cmap, genus in inputs:
        try:
            reducer.reduce(reducer.validate_input(cmap, genus))
        except (InternalInvariantError, ValidationError):
            pass


def test_four_valent_reductions_match_oracle(watched):
    reduce_all(four_valent(seed) for seed in SEEDS)
    assert watched["states"] > 1000
    assert watched["essential"] < watched["trials"]
    assert watched["skipped"] > 0, "clean germs should be skipped unwalked"


def test_mixed_valence_reductions_match_oracle(watched):
    reduce_all(mixed(seed) for seed in (*SEEDS, *ONE_VERTEX_SEEDS))
    assert watched["essential"] < watched["trials"]
    assert watched["split"] > 100, "the split rule should fire on these maps"
    assert watched["one_vertex"] > 0
    assert watched["refined"] > watched["one_vertex"]
    # the index answers more of the repeated rejections than trials make
    assert watched["skipped"] > watched["trials"] - watched["essential"]
    assert watched["moved_vertex_fresh"] > 0, "clean germs should outlive a germ change"
    assert watched["stubs"] > 0, "commits should mark the stubs of displaced ends"
    assert watched["stubs_skipped"] > 0, "scans should skip marked stubs unwalked"


def test_one_vertex_arcs_are_never_recorded(monkeypatch):
    """No clean germ's walk is a one-vertex arc, although such arcs with
    no end displaced are rejected on the live state, and every germ made
    clean is indexed by the faces of a piece of the state."""
    counts = Counter()
    trial, clean = reducer._Complement.trial, reducer._Complement._clean
    commit = reducer.add_cutting_curve

    def counted_trial(self, curve):
        cut = trial(self, curve)
        counts["live_rejected"] += (
            cut is None and is_one_vertex(self, curve.kind, curve.darts)
            and not displaces(self, curve)
        )
        return cut

    def checked_clean(self, kind, darts, piece):
        assert piece and all(0 <= f < len(self.weight) for f in piece), piece
        clean(self, kind, darts, piece)

    def checked_commit(state, cut):
        for darts, kind in state.clean.values():
            assert not is_one_vertex(state, kind, darts), ("a one-vertex arc is clean", darts)
            counts["clean"] += 1
        return commit(state, cut)

    monkeypatch.setattr(reducer._Complement, "trial", counted_trial)
    monkeypatch.setattr(reducer._Complement, "_clean", checked_clean)
    monkeypatch.setattr(reducer, "add_cutting_curve", checked_commit)
    reduce_all(mixed(seed) for seed in (*ONE_VERTEX_SEEDS, *LIVE_ONE_VERTEX_SEEDS))
    assert counts["live_rejected"] > 0
    assert counts["clean"] > 0


DATA_DIR = pathlib.Path(__file__).parent / "data"
REPRODUCERS = sorted(DATA_DIR.glob("reproducer_*.json"))


def fixture(name):
    data = json.loads((DATA_DIR / f"{name}.json").read_text())
    return surfmap.from_interchange(data), data["genus"]


def test_new_dart_face_in_a_second_region_matches_oracle(watched):
    """_retrace puts a face of new darts alone in the region of the
    curve's start, here not the first region."""
    reduce_all([fixture("second_region_face")])
    assert watched["new_face_later_region"] > 0


def counting_builds(monkeypatch):
    """Count every _Complement build and the dart count of its map."""
    builds = []
    build = reducer._Complement.__init__

    def counted(self, cmap, subgraph):
        builds.append(cmap.dart_count)
        build(self, cmap, subgraph)

    monkeypatch.setattr(reducer._Complement, "__init__", counted)
    return builds


def test_reduction_builds_the_complement_once(monkeypatch):
    """A 192-vertex reduction, and each reduction of the frozen
    reproducers, where the split rule refines the map, builds its
    complement once and commits every curve in place."""
    builds = counting_builds(monkeypatch)
    cmap, genus = four_valent(0, 192)
    cert = reducer.reduce(reducer.validate_input(cmap, genus))
    assert cert.iterations > 150
    assert len(builds) == 1, f"{len(builds)} full complement builds"
    refined = 0
    for path in REPRODUCERS:
        data = json.loads(path.read_text())
        del builds[:]
        cert = reducer.reduce(reducer.validate_input(surfmap.from_interchange(data), data["genus"]))
        assert len(builds) == 1, (path.stem, len(builds))
        refined += cert.ambient_map["dart_count"] > cert.input_dart_count
    assert refined > 0, "the split rule should fire on the reproducers"


def test_mixed_reductions_build_the_complement_once(monkeypatch):
    """Every mixed reduction builds its complement once, and copies it
    once per trial of a one-vertex arc, whether or not the split rule
    displaces one of its ends."""
    builds = counting_builds(monkeypatch)
    copies, one_vertex, displaced_ends = [], [], []
    copy, trial = reducer._Complement.copy, reducer._Complement.trial

    def counted_copy(self):
        copies.append(len(self.alpha))
        return copy(self)

    def counted_trial(self, curve):
        cut = trial(self, curve)
        cmap = self.freeze()
        new_map, _ = reference_commit(cmap, self.g, curve)
        one_vertex.append(is_one_vertex(self, curve.kind, curve.darts))
        displaced_ends.append(one_vertex_displaced(cmap, curve, new_map))
        return cut

    monkeypatch.setattr(reducer._Complement, "copy", counted_copy)
    monkeypatch.setattr(reducer._Complement, "trial", counted_trial)
    for seed in (*SEEDS, *ONE_VERTEX_SEEDS):
        del builds[:]
        cmap, genus = mixed(seed)
        cert = reducer.reduce(reducer.validate_input(cmap, genus))
        assert cert.passed, seed
        assert len(builds) == 1, (seed, len(builds))
    assert len(copies) == sum(one_vertex)
    assert 0 < sum(displaced_ends) < len(copies)


def displaced(cut):
    """Whether the commit of cut displaces an end: decided when it is
    committed, on the state the cut was judged on, unless the cut was
    made on a refined copy."""
    return not cut.refined and displaces(cut.state, cut.curve)


def test_commit_stamps_every_face_it_reweighs(monkeypatch):
    """After a commit with no end displaced (or one judged on a refined
    copy) no face of cut.weight still indexes a germ that was clean
    before it, a face whose Euler share it leaves as it was too: such a
    face holds a dart of the curve, so a germ rejected by a piece
    holding it must be voided.  The only germs such a face may index
    are the stubs of ends the commit displaced, which it marks clean
    under the corner pieces it cut off (check_released).  check_stale
    never meets one in a clean germ's piece.  On the mixed maps no such
    face indexes a germ before its commit; on the unvalidated maps some
    do."""
    counts = Counter()
    commit = reducer.add_cutting_curve
    _, log = recording_pieces(monkeypatch)

    def checked_commit(state, cut):
        moved = displaced(cut)
        indexed = {f for f in cut.weight if f in cut.state.clean_by_face}
        alpha, marked = list(state.alpha), len(log)
        after = commit(state, cut)
        if not moved:
            counts["stubs"] += check_released(after, cut, alpha, log[marked:], cut.weight, ())
            for f, change in cut.weight.items():
                counts["faces"] += 1
                counts["unchanged"] += change == 0
            counts["indexed"] += len(indexed)
        return after

    monkeypatch.setattr(reducer, "add_cutting_curve", checked_commit)
    reduce_all(mixed(seed) for seed in SEEDS)
    for _ in stepped_unvalidated():
        pass
    assert counts["unchanged"] > 0, "some commit should leave a face's Euler share as it was"
    assert counts["faces"] > counts["unchanged"]
    assert counts["indexed"] > 0, "some commit should reweigh a face that indexes a germ"
    assert counts["stubs"] > 0, "some refined commit should index its stubs there"


# the first commit that changes the first face of its cut in a clean
# germ's piece comes at seed 418
UNVALIDATED_SEEDS = range(500)


def unvalidated(seed):
    """A connected map of 3 to 12 vertices of valence 4 or 6, drawn
    without the reducer's input rules, or None."""
    rng = random.Random(seed)
    cmap = random_map(rng, [rng.choice((4, 6)) for _ in range(rng.randint(3, 12))])
    return cmap if cmap.is_connected() else None


def stepped_unvalidated():
    """The state after each commit, stepping the public functions on
    every unvalidated map until it fills or has no essential curve."""
    for seed in UNVALIDATED_SEEDS:
        cmap = unvalidated(seed)
        if cmap is None:
            continue
        state = reducer.complement(cmap)
        try:
            while not state.fills:
                state = reducer.add_cutting_curve(state, reducer.find_cutting_curve(state))
                yield state
        except InternalInvariantError:
            continue


def test_clean_germs_keep_walk_and_record_on_unvalidated_maps():
    """Stepping the public functions on maps the input rules refuse,
    every clean candidate germ keeps its walk after each commit, and the
    oracle rejects its curve.  There strands bound monogons, and a lasso
    is rejected by the disk inside its loop, which has no face along the
    tail: a commit that crosses the tail, or a refinement that
    subdivides its first edge, changes the walk and no face of the
    piece, so only the arrival-dart rules void the germ."""
    lassos = 0
    for state in stepped_unvalidated():
        check_clean(state)
        lassos += sum(kind == "VI" for _, kind in state.clean.values())
    assert lassos > 0, "some lasso should be clean"


def test_every_clean_candidate_still_counts_as_tried():
    """A scan that meets only clean candidates has tried them all: on
    this unvalidated map, after a scan that finds every candidate
    inessential, every candidate is clean, and the next scan raises the
    same error, not the one for a region with no cutting curve."""
    state = reducer.complement(unvalidated(14))
    with pytest.raises(InternalInvariantError, match="every candidate cutting curve"):
        while not state.fills:
            state = reducer.add_cutting_curve(state, reducer.find_cutting_curve(state))
    assert state.candidates and all(x in state.clean for x in state.candidates)
    with pytest.raises(InternalInvariantError, match="every candidate cutting curve"):
        reducer.find_cutting_curve(state)


def test_commits_release_the_index_where_they_change(monkeypatch):
    """After each commit no face it changed and no arrival dart whose
    walk it may have changed still indexes a germ that was clean before
    it; the only germs indexed there are the stubs of the ends it
    displaced, which it marks clean itself (check_released).  A commit
    changes the faces of the curve material it adds, the face of the
    first dart of each vertex that gains its first subgraph germ, and
    every face whose darts, their membership or alpha, or Euler share
    differ; it changes the walks that arrive along a dart of such a
    vertex or along a dart whose alpha a refinement changed.  On
    reducer input a commit that changes a face of a clean germ's piece
    crosses its walk, at a vertex that gains its first germ, so either
    rule alone voids the germ and the invariant cannot tell them apart;
    this checks each rule as the _Complement docstring states it."""
    counts = Counter()
    commit = reducer.add_cutting_curve
    _, log = recording_pieces(monkeypatch)

    def checked_commit(state, cut):
        before, g = touchable(state), set(state.g)
        gcount, alpha, marked = list(state.gcount), list(state.alpha), len(log)
        after = commit(state, cut)
        faces, _ = touchable(after)
        first = [v for v, n in enumerate(gcount) if not n and after.gcount[v]]
        changed = {f for f, view in before[0].items() if faces[f] != view}
        changed.update(after.face_of[x] for x in after.g - g)
        changed.update(after.face_of[after.cycles[v][0]] for v in first)
        moved = {x for v in first for x in after.cycles[v]}
        moved.update(x for x, a in enumerate(alpha) if after.alpha[x] != a)
        counts["stubs"] += check_released(after, cut, alpha, log[marked:], changed, moved)
        counts["faces"] += len(changed)
        counts["arrivals"] += len(moved)
        return after

    monkeypatch.setattr(reducer, "add_cutting_curve", checked_commit)
    reduce_all(mixed(seed) for seed in SEEDS)
    for _ in stepped_unvalidated():
        pass
    assert counts["faces"] and counts["arrivals"]
    assert counts["stubs"] > 0, "some commit should index its stubs under a face it changed"


def test_complement_builds_match_oracle():
    """A complement built from a caller's subgraph, as complement builds
    it, has the oracle's faces, regions, Euler characteristics and
    candidates: an annulus on the torus, the 36 disks and the 6 annuli
    of a 30 x 30 torus grid cut along every fifth row and column or row
    alone, every face its own disk, and the subgraph after every commit
    of a reduction, rebuilt from scratch; the last is the certificate's
    subgraph in its ambient map."""
    check_state(reducer.complement(torus_two_curves(), frozenset({0, 2, 4, 6})))
    fifths = range(0, 30, 5)
    for columns, euler2 in ((fifths, [2] * 36), ((), [0] * 6)):
        state = reducer.complement(*torus_grid(30, fifths, columns))
        check_state(state)
        assert state.euler2 == euler2
    two_non_disks = 0
    for path in sorted(DATA_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        if "genus" not in data or path.stem in ("bigon", "torus_claim"):
            continue
        cmap = surfmap.from_interchange(data)
        check_state(reducer.complement(cmap, frozenset(range(cmap.dart_count))))
        state = reducer.complement(cmap)
        while not state.fills:
            state = reducer.add_cutting_curve(state, reducer.find_cutting_curve(state))
            rebuilt = reducer.complement(state.freeze(), frozenset(state.g))
            check_state(rebuilt)
            two_non_disks += sum(e != 2 for e in rebuilt.euler2) > 1
    assert two_non_disks > 0, "some rebuilt complement should have two non-disk regions"


def test_a_displaced_end_changes_no_piece(monkeypatch):
    """A curve judged as its direct attachment and committed with an end
    displaced: the cut of the refinement splits the region's old faces
    into the pieces the trial's cut did, with the same Euler
    characteristics, though which piece keeps the region's index may
    differ.  The clean-germ argument in the _Complement docstring rests
    on this."""
    made, commits = [], []
    cut_of, commit = reducer._Complement._cut, reducer.add_cutting_curve

    def recorded_cut(self, *args, **kwargs):
        made.append(cut_of(self, *args, **kwargs))
        return made[-1]

    def pieces(cut, faces, old):
        closed = [{f for f in piece if f < faces} for piece in cut.closed]
        rest = set(old).difference(*closed)
        return Counter(zip(map(frozenset, [*closed, rest]), cut.euler2))

    def checked_commit(state, cut):
        if not displaced(cut):
            return commit(state, cut)
        faces = len(state.weight)
        old = [f for f, r in enumerate(state.face_region) if r == cut.region]
        del made[:]
        state = commit(state, cut)
        (refined,) = made
        assert pieces(refined, faces, old) == pieces(cut, faces, old), cut.curve
        commits.append(cut.curve)
        return state

    monkeypatch.setattr(reducer._Complement, "_cut", recorded_cut)
    monkeypatch.setattr(reducer, "add_cutting_curve", checked_commit)
    reduce_all(mixed(seed) for seed in SEEDS)
    assert len(commits) == 322
