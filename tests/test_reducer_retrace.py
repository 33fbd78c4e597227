"""A refinement relabels only the corner pieces it cuts off faces.

When the split rule displaces a curve end, ``_Complement._retrace``
brings the face tables up to date by deltas.  The split rule refines by
a short arc near a vertex, which only cuts corners off the faces there:
each corner piece holds exits (the old darts of a subdivided edge) and
new darts alone and takes a new index, and the rest of the face keeps
its index.  A face whose old darts are all exits has no rest, and its
largest piece keeps the index.  These tests check, after every
refinement of the oracle's mixed-valence reductions, of two mixed maps
with such all-exit faces and of the ``second_region_face`` fixture,
that the only old darts that change face are exits, that the old index
sits on the rest or on a largest piece when there is no rest, and that
no face whose darts changed and no exit still indexes a clean germ.  A refinement that cuts a face into two pieces holding
untouched old darts is not one the split rule makes: the hand-made
chords below do so, and _retrace must refuse them by its Euler count.
"""

from collections import Counter

import pytest

from conftest import complement
from fillgeo import reducer
from fillgeo.errors import InternalInvariantError
from test_reduce_digests import SEEDS, four_valent, mixed
from test_reducer_oracle import ONE_VERTEX_SEEDS, fixture, reduce_all

# Mixed maps whose reductions split a face whose old darts are all
# exits, into pieces of 6+3+3 and 8+3+3 darts.
ALL_EXIT_SEEDS = (269, 558)


def faces_of(state, darts):
    faces = {}
    for x in darts:
        faces.setdefault(state.face_of[x], set()).add(x)
    return faces


def check_refinement(state, n, before, counts):
    """The corner and voiding rules for one refinement that made darts
    n and up; before maps each old face index to its old darts."""
    after = faces_of(state, range(len(state.alpha)))
    exits = {state.alpha[y] for y in range(n, len(state.alpha)) if state.alpha[y] < n}
    for f, darts in before.items():
        rest = darts - exits
        if rest:
            moved = [x for x in rest if state.face_of[x] != f]
            assert not moved, ("old darts off the rest of their face", f, moved)
        else:
            sizes = {h: len(after[h]) for h in {state.face_of[x] for x in darts}}
            assert sizes.get(f) == max(sizes.values()), ("old index off its largest piece", sizes)
            counts["all_exit"] += len(sizes) > 1
        counts["split"] += len({state.face_of[x] for x in darts & exits} - {f}) > 0
    for f, darts in after.items():
        if darts != before.get(f):
            assert f not in state.clean_by_face, ("a changed face still indexes", f)
    assert not exits & state.clean_by_arrival.keys(), "an exit still indexes"


@pytest.fixture
def refinements(monkeypatch):
    """Check every refinement of the reductions run under it."""
    counts = Counter()
    retrace = reducer._Complement._retrace

    def checked(self, n, start):
        before = faces_of(self, range(n))
        try:
            retrace(self, n, start)
        except InternalInvariantError:
            counts["guard"] += 1
            raise
        check_refinement(self, n, before, counts)
        counts["refinements"] += 1

    monkeypatch.setattr(reducer._Complement, "_retrace", checked)
    return counts


def test_split_rule_refinements_keep_each_index_on_its_largest_piece(refinements):
    reduce_all(mixed(seed) for seed in (*SEEDS, *ONE_VERTEX_SEEDS, *ALL_EXIT_SEEDS))
    reduce_all([fixture("second_region_face")])
    assert refinements["guard"] == 0
    assert refinements["split"] > 100
    assert refinements["all_exit"] > 0


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
# darts at these places of the face.  One chord halves the face, and two
# chords cut it into three pieces, so two or three pieces hold old darts
# that no chord touches.
CHORDS = (
    (6, 0, ((0, 33),)),
    (13, 1, ((10, 60),)),
    (6, 0, ((1, 22), (42, 57))),
    (29, 2, ((0, 12), (18, 51))),
    (13, 1, ((21, 64), (92, 101))),
)


@pytest.mark.parametrize("seed, cuts, chords", CHORDS)
def test_chords_across_a_long_face_raise_the_guard(seed, cuts, chords):
    cmap, genus = four_valent(seed)
    state = complement(reducer.validate_input(cmap, genus).cmap)
    for _ in range(cuts):
        state = reducer.add_cutting_curve(state, reducer.find_cutting_curve(state))
    darts = longest_face(state)
    n = refine(state, [(darts[i], darts[j]) for i, j in chords])
    with pytest.raises(InternalInvariantError, match="other than at its corners"):
        state._retrace(n, darts[0])
