"""A refinement relabels only the darts off the largest piece of each face.

When the split rule displaces a curve end, ``_Complement._retrace``
brings the face tables up to date by deltas: each old face the new
darts split keeps its index on its largest piece (ties allowed), and
only the other pieces take new indices.  These tests check, after
every refinement of the oracle's mixed-valence reductions and of the
``second_region_face`` fixture, that the old index sits on a largest
piece, that no more old darts change face than lie off the largest
pieces, and that every face whose darts changed is stamped with the
step of the commit under way.  The split rule's own refinements cut
off only corners at a vertex, which close by the new darts alone; the
hand-made refinements below cut faces into long pieces, so the walks
along old darts run too, and are checked against the oracle.
"""

from collections import Counter

import pytest

from fillgeo import reducer
from test_reduce_digests import SEEDS, four_valent, mixed
from test_reducer_oracle import ONE_VERTEX_SEEDS, check_state, fixture, reduce_all


def faces_of(state, darts):
    faces = {}
    for x in darts:
        faces.setdefault(state.face_of[x], set()).add(x)
    return faces


def check_refinement(state, n, before, counts):
    """The keeper and stamping rules for one refinement that made darts
    n and up; before maps each old face index to its old darts."""
    after = faces_of(state, range(len(state.alpha)))
    exits = {state.alpha[y] for y in range(n, len(state.alpha)) if state.alpha[y] < n}
    off = 0
    for f in (f for f, darts in before.items() if darts & exits):
        sizes = {h: len(after[h]) for h in {state.face_of[x] for x in before[f]}}
        assert sizes.get(f) == max(sizes.values()), ("old index off its largest piece", sizes)
        off += sum(sizes.values()) - sizes[f]
        counts["split"] += len(sizes) > 1
    relabelled = sum(state.face_of[x] != f for f, darts in before.items() for x in darts)
    assert relabelled <= off, (relabelled, off)
    counts["relabelled"] += relabelled
    counts["off"] += off
    for f, darts in after.items():
        if darts != before.get(f):
            assert state.face_touched[f] == state.step + 1, ("face left unstamped", f)


@pytest.fixture
def refinements(monkeypatch):
    """Check every refinement of the reductions run under it."""
    counts = Counter()
    retrace = reducer._Complement._retrace

    def checked(self, n, start):
        before = faces_of(self, range(n))
        retrace(self, n, start)
        check_refinement(self, n, before, counts)
        counts["refinements"] += 1

    monkeypatch.setattr(reducer._Complement, "_retrace", checked)
    return counts


def test_split_rule_refinements_keep_each_index_on_its_largest_piece(refinements):
    reduce_all(mixed(seed) for seed in (*SEEDS, *ONE_VERTEX_SEEDS))
    reduce_all([fixture("second_region_face")])
    assert refinements["split"] > 100
    assert refinements["relabelled"] <= refinements["off"]


def refine(state, chords):
    """Refine the state as the split rule does, by one new edge across
    a face for each pair (d, e) of its old darts, between new
    three-valent points on their edges, whose corners along the old
    edges are straight; returns the old dart count."""
    for name, table in vars(state).items():
        if isinstance(table, tuple):
            setattr(state, name, list(table))
    n = len(state.alpha)
    fresh = iter(range(n, n + 6 * len(chords)))
    for table in (state.alpha, state.sigma, state.owner, state.opp):
        table += [None] * (6 * len(chords))
    for pair in chords:
        ends = []
        for x in pair:
            near, far = state._subdivide(x, set(), fresh)
            ends.append(next(fresh))
            state._vertex((near, ends[-1], far), far)
        a, b = ends
        state.alpha[a], state.alpha[b] = b, a
    return n


def longest_face(state):
    """The darts of the state's longest face, in face order."""
    x = state.face_of.index(Counter(state.face_of).most_common(1)[0][0])
    darts = []
    while x not in darts:
        darts.append(x)
        x = state.sigma[state.alpha[x]]
    return darts


# (seed, cuts, chords): the 48-vertex 4-valent map of the seed after
# that many cuts, refined by chords across its longest face between the
# darts at these places of the face.  One chord halves the face, so both
# pieces are walked along old darts; two chords leave a middle piece
# walked from two exits, which closes before a shorter piece, so the
# last open piece is walked round and the middle one keeps the index.
CHORDS = (
    (6, 0, ((0, 33),)),
    (13, 1, ((10, 60),)),
    (6, 0, ((1, 22), (42, 57))),
    (29, 2, ((0, 12), (18, 51))),
    (13, 1, ((21, 64), (92, 101))),
)


@pytest.mark.parametrize("seed, cuts, chords", CHORDS)
def test_chords_across_a_long_face_match_the_oracle(seed, cuts, chords, refinements):
    cmap, genus = four_valent(seed)
    state = reducer.complement(reducer.validate_input(cmap, genus).cmap)
    for _ in range(cuts):
        state = reducer.add_cutting_curve(state, reducer.find_cutting_curve(state))
    darts, faces = longest_face(state), len(state.weight)
    n = refine(state, [(darts[i], darts[j]) for i, j in chords])
    state._retrace(n, darts[0])
    check_state(state)
    assert len(state.weight) == faces + len(chords)
    assert refinements["split"] == 1
