"""Reduction of filling multi-curve maps to small-face filling graphs.

The input is a combinatorial map of a multi-curve on a closed genus-g
surface: every vertex has even valence at least four and every face of
the rotation system is a disk (the curve fills).  The reducer grows a
subgraph G inside a refinement of the input map by repeatedly adding
cutting curves (simple loops, arcs and lassos made of unused strand
material) until the complement of G is a union of disks, keeping every
vertex of G of valence three or four.  Three-valent vertices carry
exactly one straight corner (two of their edge germs continue one
another), which makes the complementary faces satisfy the degree
identity sum(m_i - 4) = 8g - 8; the construction aims for every
effective face degree m_i to be at least five.

The certificate returned by reduce records the subgraph, the face
degrees and the outcome of every check; it never hides a failure.
"""

from bisect import bisect_left, insort
from collections import deque, namedtuple
from collections.abc import Sequence

from .errors import DomainError, InternalInvariantError, ValidationError
from .report import json_text
from .surfmap import CombinatorialMap, from_interchange, pair_strands, to_interchange


class FillingMap(namedtuple("FillingMap", "cmap genus")):
    """A multi-curve map that fills the closed surface of its genus.

    The constructor checks it, and every refusal is a ValidationError: it
    rejects a genus that is no integer of at least two (where polygeom's
    functions raise DomainError), a cmap that is no CombinatorialMap,
    straight corners, disconnected maps, odd or small valences, monogon
    and bigon faces, and maps whose rotation-system genus differs from
    the stated genus (the curve then fails to fill that surface).
    """

    __slots__ = ()

    def __new__(cls, cmap, genus):
        if type(genus) is not int or genus < 2:
            raise ValidationError(f"genus must be an integer of at least 2, got {genus!r}")
        if not isinstance(cmap, CombinatorialMap):
            raise ValidationError(f"a FillingMap needs a CombinatorialMap, not {type(cmap).__name__}")
        if cmap.straight_corners:
            raise ValidationError("input multi-curve maps carry no straight corners")
        if not cmap.is_connected():
            raise ValidationError("map is disconnected")
        for cycle in cmap.vertices():
            val = len(cycle)
            if val % 2 != 0:
                raise ValidationError(f"vertex valence {val} is odd: not a multi-curve")
            if val < 4:
                raise ValidationError(f"vertex valence {val} below four")
        v = len(cmap.vertices())
        e = cmap.dart_count // 2  # alpha pairs the darts
        faces = cmap.faces()
        for cycle in faces:
            if len(cycle) <= 2:
                raise ValidationError(
                    f"face of degree {len(cycle)} (monogon or bigon) is not allowed"
                )
        map_genus = (2 - (v - e + len(faces))) // 2
        if map_genus != genus:
            raise ValidationError(
                f"map fills a genus-{map_genus} surface, not genus {genus}: "
                "the multi-curve does not fill the stated surface"
            )
        return super().__new__(cls, cmap, genus)


def validate_input(map_or_data, genus: int) -> FillingMap:
    """FillingMap(map, genus), reading interchange data into a map first."""
    if not isinstance(map_or_data, CombinatorialMap):
        map_or_data = from_interchange(map_or_data)
    return FillingMap(map_or_data, genus)


class Region(namedtuple("Region", "faces euler")):
    """One complementary piece of a subgraph: its faces and Euler characteristic."""

    __slots__ = ()

    @property
    def is_disk(self) -> bool:
        return self.euler == 1


class _Cut(namedtuple(
    "_Cut", "added touched weight removed region closed euler2 curve state step refined",
    defaults=(False,),
)):
    """What committing one cutting curve changes in a complement.

    added holds the curve's darts in both directions.  Three dicts
    count what they change: touched maps each vertex to the added darts
    at it, weight each face of an added dart, and each face that loses
    an interior vertex, to the change of its doubled Euler share, and
    removed each pair of distinct faces (lower face first) to the curve
    edges between them.  The curve lies in one region: closed lists the
    faces of each piece the cut splits off it, and euler2 the doubled
    Euler characteristic of those pieces followed by that of the rest,
    which keeps the region's index.
    curve is the cutting curve, state the complement the cut was made
    in and step that complement's step then.  refined marks a cut whose
    curve the split rule has already refined, on a copy of the
    complement (a one-vertex arc; see trial); add_cutting_curve refines
    the curve of any other cut (_refine) before it commits.
    """

    __slots__ = ()


class _MutableMap:
    """A map and a subgraph as mutable tables, refined in place by the split rule.

    The tables, copied from the map when made, are alpha, sigma and the
    straight corners, the vertex rotations (cycles), the vertex of each
    dart (owner) and the strand opposites (opp).  _refine applies the
    split rule to a curve, for _Complement and, on the bare tables, as
    the oracle test's reference commit, and lists the ends it displaces
    in stubs (see _deviate); freeze gives the map as a CombinatorialMap.
    """

    def __init__(self, cmap: CombinatorialMap, subgraph):
        self._frozen = cmap
        self.alpha, self.sigma = list(cmap.alpha), list(cmap.sigma)
        self.straight = set(cmap.straight_corners)
        self.cycles = list(cmap.vertices())
        self.owner = list(cmap.vertex_of_dart())
        self.opp = list(cmap.strand_opposites())
        self.g = set(subgraph)
        self.stubs = []

    def freeze(self) -> CombinatorialMap:
        """The live map as a CombinatorialMap: the map this one was built
        from, that same object, until a refinement adds darts."""
        if self._frozen.dart_count < len(self.alpha):
            self._frozen = CombinatorialMap._trusted(
                dart_count=len(self.alpha),
                alpha=tuple(self.alpha),
                sigma=tuple(self.sigma),
                straight_corners=frozenset(self.straight),
            )
        return self._frozen

    def _refine(self, kind: str, darts) -> frozenset:
        """Refine the map in place for a curve by the split rule; returns
        the curve material.

        This is the one split rule.  Each end of an arc or lasso is
        decided on the live tables as it is attached: it attaches
        directly when the germs at its vertex in the subgraph or placed
        form a clean corner pattern with it (_attaches), and is
        displaced (see _deviate) otherwise.  The start goes first, with
        nothing placed; a displaced start leaves its germ off the
        subgraph.  An arc's arrival goes after the arc's other edges,
        with its start counted as placed, though a one-edge arc's start
        is placed only with it; an arrival that the start's sweep
        crossed sits at that four-valent crossing and attaches
        directly.  New darts are numbered from the old dart count up,
        in the order _deviate makes them, and form new vertices,
        numbered by least dart; old darts keep their sigma.  The
        subgraph gains only the halves of its subdivided edges, so the
        regions stay as they were.
        """
        n, start = len(self.alpha), darts[0]
        placed = set()
        darts = list(darts)
        if kind in ("V", "VI") and not self._attaches(start, ()):
            darts[0] = self._deviate(start, placed)
        if kind == "V":
            for d in darts[:-1]:
                placed.update((d, self.alpha[d]))
            arrival = self.alpha[darts[-1]]
            if not self._attaches(arrival, placed | {darts[0]}):
                arrival = self._deviate(arrival, placed)
            darts = [arrival, darts[0]]
        for d in darts:
            placed.update((d, self.alpha[d]))
        if len(self.alpha) > n:
            self._retrace(n, start)
        return frozenset(placed)

    def _attaches(self, end: int, placed) -> bool:
        """Whether end attaches directly: the germs at its vertex in the
        subgraph or placed form a clean corner pattern with it."""
        g = self.g
        germs = {x for x in self.cycles[self.owner[end]] if x in g or x in placed}
        germs.add(end)
        return _clean_corner_pattern(self.opp, germs)

    def _subdivide(self, d: int, placed: set, fresh):
        """Split the edge of d at a new point near v(d).

        Returns (near, far), the next two darts of fresh, the new darts
        there: near faces v(d), far faces the old far endpoint; _vertex
        makes them a vertex.  Both halves inherit the membership of d in
        the subgraph or in placed.
        """
        alpha = self.alpha
        a = alpha[d]
        near, far = next(fresh), next(fresh)
        alpha[d] = near
        alpha[near] = d
        alpha[far] = a
        alpha[a] = far
        if d in self.g:
            self.g.update((near, far))
        elif d in placed:
            placed.update((near, far))
        return near, far

    def _deviate(self, germ: int, placed: set) -> int:
        """Displace a curve end off the vertex of germ.

        The curve used to terminate along the edge of germ; it now stops
        just short of the vertex, sweeps counterclockwise across the
        intervening germs outside the subgraph and placed, the curve
        material placed so far (crossing their edges at new four-valent
        vertices), and lands with a new three-valent vertex on the side
        of the first edge of either it meets.  The new curve darts join
        placed.  Returns the dart that replaces germ as the curve's
        terminal germ.  germ stays off the curve, a stub from the vertex
        to the clip point; stubs records it with the germs the sweep
        crossed and the landing germ, whose faces are then the corner
        pieces the sweep cut off between the stub and the landing.
        """
        alpha, sigma = self.alpha, self.sigma
        crossed = []
        x = sigma[germ]
        while x not in self.g and x not in placed:
            if x == germ:
                raise InternalInvariantError("no subgraph germ to land on")
            crossed.append(x)
            x = sigma[x]
        landing = x
        self.stubs.append((germ, (*crossed, landing)))
        # the new darts, numbered in the order they are made
        fresh = iter(range(len(alpha), len(alpha) + 4 * len(crossed) + 6))
        for table in (alpha, sigma, self.owner, self.opp):
            table += [None] * (4 * len(crossed) + 6)

        # clip the terminal edge just short of the vertex; the gap
        # between the two old edge halves is straight
        near0, far0 = self._subdivide(germ, placed, fresh)
        prev = next(fresh)
        self._vertex((near0, far0, prev), near0)

        for gamma in crossed:
            near, far = self._subdivide(gamma, placed, fresh)
            fw, pw = next(fresh), next(fresh)
            self._vertex((near, pw, far, fw))
            alpha[prev] = pw
            alpha[pw] = prev
            placed.update((prev, pw))
            prev = fw

        near, far = self._subdivide(landing, placed, fresh)
        q = next(fresh)
        # the far-side corner is straight
        self._vertex((near, q, far), far)
        alpha[prev] = q
        alpha[q] = prev
        placed.update((prev, q))
        return far0

    def _vertex(self, rotation: tuple, straight=None):
        """Make the new darts of rotation a vertex, in that counterclockwise
        order, with the corner after the dart straight, if one is given."""
        v = len(self.cycles)
        for x, y in zip(rotation, rotation[1:] + rotation[:1]):
            self.sigma[x] = y
            self.owner[x] = v
        if straight is not None:
            self.straight.add(straight)
        self.cycles.append(rotation)
        pair_strands(rotation, self.sigma, self.straight, self.opp)

    def _retrace(self, n: int, start: int):
        """Update the face tables, which the bare map does not keep."""


class _Complement(_MutableMap):
    """The complement of a subgraph in a map, kept up to date as curves are cut.

    The state owns the map as the mutable tables of _MutableMap and the
    face of each dart (face_of).  The surface cut along the subgraph
    falls into regions: unions of the map's faces glued across edges
    outside the subgraph.  Per face the state keeps its region and its
    doubled share of the region's Euler characteristic (see _tally), per
    region the doubled Euler characteristic (a disk has 2), per pair of
    distinct faces the number of edges outside the subgraph between
    them, per vertex its number of subgraph germs, and the candidate
    germs of the arc search, in dart order: germs outside the subgraph
    at subgraph vertices of non-disk regions.

    reduce builds one per run and keeps it current through every
    commit (add_cutting_curve), refined maps included: the split rule
    refines the tables in place (_refine) and relabels only the corner
    pieces it cuts off faces (_retrace), raising InternalInvariantError
    on a refinement that splits a face otherwise.  A trial judges a
    curve as its direct attachment, from the faces and vertices it
    touches alone (see trial); a one-vertex arc is judged on a refined
    copy.  freeze gives the live map as a CombinatorialMap.
    The subgraph is taken as valid: complement checks a caller's
    (_checked_subgraph), and the reducer's own subgraphs are.

    Most trials of a reduction reject a curve that an earlier iteration
    already rejected, so the state keeps a memo of rejections, and the
    arc search walks a candidate germ only when its verdict can have
    changed.  When trial rejects an arc or lasso by a disk piece P split
    off the region (not its unwalked rest), the curve's germ becomes
    clean (_clean): the state keeps the walk from it (clean) and indexes
    the germ by the faces of P (clean_by_face) and by the arrival alpha[d]
    of each dart d of the walk (clean_by_arrival).  A commit changes a
    face when the face is in its cut's weight (the only faces whose Euler
    shares and edge counts it changes) or holds an exit of its
    refinement (see _retrace).  The invariant: a
    clean germ's walk equals _walk_arc now, and no face of the disk piece
    that rejected it has changed since.

    So its curve is still inessential.  A one-vertex arc (kind V with
    both ends at one vertex) is never made clean: it is judged on its
    refinement (see trial), whose split decisions read every germ at its
    vertex.  For any other curve, every edge between a face of P and a
    face outside it is a subgraph edge or a curve edge, and a commit only
    adds subgraph material, so while no face of P changes P stays a
    piece of the cut, with its Euler shares.  Four facts keep P's
    boundary: while the walk stays, the curve's inner vertices have no
    subgraph germ and its end vertices keep theirs; a germ added inside
    one of P's corner gaps changes a face of P, the face of the new dart,
    which holds the corner just before it; a germ added in another gap
    leaves P's gap transitions as they were; and a displaced end does not
    change the verdict of any curve that is not a one-vertex arc (see
    trial).  So P is still a disk piece with at most two changes.

    A commit also makes clean, untried, the stub each displaced end
    leaves off the subgraph (see _deviate) while it is still a
    candidate: its walk is the one-edge arc ((germ,), "V") to the clip
    point, and P is the corner pieces the sweep cut off between the stub
    and the landing, the faces of the crossed and landing germs after
    _retrace.  Its verdict is known: those corners are glued only across
    the crossed edges' halves at the vertex, so P is a disk, and a piece
    of the cut along the stub whose boundary is the stub (curve), then
    the sweep and the landing half-edge (old boundary).  That is two
    changes, so _pushes_off would reject the stub by P, and the argument
    above keeps the verdict while no face of P changes.  The stub ends at
    a new vertex, so it is never a one-vertex arc, and those stay never
    clean.

    Two rules void clean germs and keep the invariant.  Faces: a commit
    voids the germs indexed by each face it changes.  Arrival darts: a
    walk reads the alpha of its darts and, at each arrival, the strand
    opposite and whether its vertex has a subgraph germ (owners and
    opposites of old darts never change).  So a commit voids the germs
    indexed by each dart of a vertex that gains its first subgraph germ,
    and _retrace those indexed by its exits, the old darts whose alpha it
    changed: both old ends of a subdivided edge are exits, and one of
    them is the arrival of the walk dart on that edge.  Index entries are
    dropped only when their key voids: an entry that outlives its germ's
    clean spell can only void the germ early, which costs a walk and a
    trial.  A copy keeps an index of its own, so a state stays usable
    after a cut judged on its copy was committed.
    """

    def __init__(self, cmap: CombinatorialMap, subgraph):
        super().__init__(cmap, subgraph)
        g, faces = self.g, len(cmap.faces())
        self.face_of = list(cmap.face_of_dart())
        self.gcount = [sum(x in g for x in cycle) for cycle in self.cycles]
        self.weight, self.adjacent = [2] * faces, [{} for _ in range(faces)]
        self._tally(range(cmap.dart_count), self.alpha, 1)
        # the regions are the pieces a search from every face splits
        # off, then the rest
        closed = self._split(range(faces), {})
        self.face_region, self.euler2 = [len(closed)] * faces, [0] * (len(closed) + 1)
        for r, piece in enumerate(closed):
            for f in piece:
                self.face_region[f] = r
        for f, r in enumerate(self.face_region):
            self.euler2[r] += self.weight[f]
        self.candidates = self._candidates(range(cmap.dart_count))
        self.step = 0
        self.clean, self.clean_by_face, self.clean_by_arrival = {}, {}, {}

    def _candidates(self, darts) -> list:
        """The candidate germs among darts, in their order."""
        g, gcount, owner, face_of = self.g, self.gcount, self.owner, self.face_of
        euler2, face_region = self.euler2, self.face_region
        return [
            d for d in darts
            if d not in g and gcount[owner[d]] and euler2[face_region[face_of[d]]] != 2
        ]

    def _tally(self, darts, far, by: int):
        """Add by times each dart's part to its face: to the face's doubled
        Euler share (2 for the face itself), -1 for a dart outside the
        subgraph (half an interior edge; a subgraph dart's -1 as a
        boundary side is made up by the corner gap after its alpha, in the
        same face) and +2 more at the first dart of an interior vertex's
        rotation; and to the edges counted from its face to that of
        far[x], if another."""
        g, owner, gcount, cycles = self.g, self.owner, self.gcount, self.cycles
        face_of, weight, adjacent = self.face_of, self.weight, self.adjacent
        for x in darts:
            if x in g:
                continue
            f, h, v = face_of[x], face_of[far[x]], owner[x]
            weight[f] += by if not gcount[v] and cycles[v][0] == x else -by
            if f != h:
                adjacent[f][h] = adjacent[f].get(h, 0) + by
                if not adjacent[f][h]:
                    del adjacent[f][h]

    def copy(self) -> "_Complement":
        """A copy to refine and cut, leaving this complement as it is."""
        twin = object.__new__(type(self))
        twin.__dict__ = {
            name: value.copy() if isinstance(value, (list, set, dict)) else value
            for name, value in vars(self).items()
        }
        twin.adjacent = [dict(counts) for counts in self.adjacent]
        twin.clean_by_face = {f: list(germs) for f, germs in self.clean_by_face.items()}
        twin.clean_by_arrival = {x: list(germs) for x, germs in self.clean_by_arrival.items()}
        return twin

    def region_of(self, d: int) -> int:
        """The region of the face on the left of dart d."""
        return self.face_region[self.face_of[d]]

    @property
    def fills(self) -> bool:
        return all(e == 2 for e in self.euler2)

    def trial(self, curve: "CuttingCurve"):
        """The _Cut that commits curve, or None if the curve is inessential.

        The curve is inessential when the cut leaves a disk piece whose
        boundary is all curve (a contractible loop) or one run of curve
        against one run of old boundary (the curve merely pushes off
        existing boundary); see _pushes_off.  A displaced end (see
        _deviate) slides the curve's end along the boundary, inside the
        corner gap it attaches in, to a point on the next subgraph edge;
        that changes neither the pieces, nor their Euler characteristics,
        nor the boundary runs, so the curve is judged as its direct
        attachment, without asking which ends the split rule displaces:
        add_cutting_curve refines the map for it (_refine) on the cut's
        state, which its step check proves is the state judged here.
        Only an arc with both ends at one vertex is not: its displaced
        arrival can sweep to the arc's own start germ and land on it (or
        cross it, on a one-edge arc), and there the direct attachment can
        misjudge it; so a one-vertex arc is refined and cut on a copy of
        this complement, which add_cutting_curve takes as the next state.

        The curve is taken as valid for this complement: the reducer's
        own candidates are, and is_essential checks an outside one.
        """
        alpha, owner, kind, darts = self.alpha, self.owner, curve.kind, curve.darts
        region = self.region_of(darts[0])
        one_vertex = kind == "V" and owner[darts[0]] == owner[alpha[darts[-1]]]
        if one_vertex:
            state = self.copy()
            cut = state._cut(state._refine(kind, darts), region, curve, refined=True)
        else:
            added = frozenset(darts) | frozenset(alpha[d] for d in darts)
            cut = self._cut(added, region, curve)
        piece = cut.state._pushes_off(cut)
        if piece is None:
            return cut
        if not one_vertex and piece < len(cut.closed):
            self._clean(kind, tuple(darts), cut.closed[piece])
        return None

    def _clean(self, kind: str, darts: tuple, piece):
        """Make the germ of an arc or lasso, the walk from it, clean: the
        disk piece of the faces in piece rejects it.  A loop's germ never
        is.  This is the one place a germ becomes clean, for a curve
        trial rejected or the stub of a displaced end (add_cutting_curve)."""
        if kind not in ("V", "VI"):
            return
        x, alpha = darts[0], self.alpha
        self.clean[x] = darts, kind
        for f in piece:
            self.clean_by_face.setdefault(f, []).append(x)
        for d in darts:
            self.clean_by_arrival.setdefault(alpha[d], []).append(x)

    def _void(self, index: dict, keys):
        """Void the clean germs that index holds under each of keys."""
        clean = self.clean
        for key in keys:
            for x in index.pop(key, ()):
                clean.pop(x, None)

    def _cut(self, added: frozenset, region: int, curve, refined=False) -> _Cut:
        """The cut of curve, which adds the edges of added inside region:
        the curve itself, or its refinement when refined."""
        alpha, face_of, owner, cycles = self.alpha, self.face_of, self.owner, self.cycles
        # each added dart is a boundary side (-1) and opens a corner gap
        # in the face of its alpha (+2, counted at its own face here,
        # since added is closed under alpha)
        touched, weight, removed = {}, {}, {}
        for x in added:
            v, a, b = owner[x], face_of[x], face_of[alpha[x]]
            touched[v] = touched.get(v, 0) + 1
            weight[a] = weight.get(a, 0) + 1
            if a < b:
                removed[a, b] = removed.get((a, b), 0) + 1
        for v in touched:
            if not self.gcount[v]:
                f = face_of[cycles[v][0]]
                weight[f] = weight.get(f, 0) - 2
        # a region can only fall apart where the cut empties an adjacency
        emptied = {f for (a, b), n in removed.items() if self.adjacent[a][b] == n for f in (a, b)}
        closed = self._split(emptied, removed) if emptied else []
        euler2 = [sum(self.weight[f] + weight.get(f, 0) for f in faces) for faces in closed]
        euler2.append(self.euler2[region] + sum(weight.values()) - sum(euler2))
        return _Cut(added, touched, weight, removed, region, closed, euler2, curve, self,
                    self.step, refined)

    def _pushes_off(self, cut: _Cut):
        """The disk piece of a cut that makes its curve inessential, or None.

        This is the one inessential rule.  cut.added holds the curve
        material: the curve's darts and the darts the split rule makes
        for it, but not the halves of a subdivided subgraph edge, which
        stay old boundary.  A disk has one boundary cycle, which passes
        every corner gap of the piece once and changes between curve and
        old material exactly at the gaps where the dart arriving along
        one germ and the dart leaving along the next differ in being
        added.  Such gaps lie at the ends of added darts, at the touched
        vertices, so no boundary is walked.  The curve is inessential
        when a disk piece touching added darts has at most two of them:
        its boundary is all curve, or one run of curve and one of old.
        Pieces are numbered as in cut.euler2 and tried in that order, so
        a piece split off is found before the rest of the region.
        """
        if 2 not in cut.euler2:
            return None
        alpha, sigma, face_of, g, added = self.alpha, self.sigma, self.face_of, self.g, cut.added
        piece = {f: i for i, faces in enumerate(cut.closed) for f in faces}
        rest = len(cut.closed)
        changes = {}
        for v in cut.touched:
            germs = [x for x in self.cycles[v] if x in g or x in added]
            for i, p in enumerate(germs):
                if (alpha[p] in added) != (germs[(i + 1) % len(germs)] in added):
                    k = piece.get(face_of[sigma[p]], rest)
                    changes[k] = changes.get(k, 0) + 1
        pieces = sorted({piece.get(face_of[x], rest) for x in added})
        return next((p for p in pieces if cut.euler2[p] == 2 and changes.get(p, 0) <= 2), None)

    def _split(self, sources, removed: dict) -> list:
        """The faces of every piece but one that the faces of sources
        fall into once the edge counts in removed are taken away.

        One search starts at each source face, in order, and the live
        searches take one face each in turn.  Where a search reaches a
        face of another live one, the one holding fewer faces (on a tie,
        the one reaching) stops, and live searches take its faces over
        as they reach them.  Every piece keeps a live search, because a
        meeting stops only one of two searches in the same piece: so a
        search that runs out has found its whole piece, and the last one
        left is in the rest, which is never walked whole.  The cost is
        still not bounded by the pieces split off: each turn reads the
        whole adjacency of the face it takes, and the searches in the
        rest of the region take as many turns as those that close, so a
        long face's hundreds of neighbours are read on most calls.
        """
        search_of = {f: i for i, f in enumerate(sorted(sources))}
        faces_of, read = [[f] for f in search_of], [0] * len(search_of)
        live, turns, closed = set(search_of.values()), deque(search_of.values()), []
        while len(live) > 1:
            i = turns.popleft()
            faces = faces_of[i]
            if i in live and read[i] == len(faces):
                live.remove(i)
                closed.append(faces)
            if i not in live:
                continue
            f = faces[read[i]]
            read[i] += 1
            turns.append(i)
            for h, n in self.adjacent[f].items():
                if n == removed.get((f, h) if f < h else (h, f), 0):
                    continue
                j = search_of.get(h)
                if j == i:
                    continue
                if j in live:
                    if len(faces) <= len(faces_of[j]):
                        live.remove(i)
                        break
                    live.remove(j)
                search_of[h] = i
                faces.append(h)
        return closed

    def _retrace(self, n: int, start: int):
        """Also relabel the faces a refinement changed, by deltas.

        The refinement made darts n and up and changed the alpha of the
        old darts of each subdivided edge, its exits; each new face lies
        inside an old one.  From each exit the orbit runs through new
        darts, labelled with the exit's face, to an old dart; new darts
        no exit reaches make faces of new darts alone, in the region of
        start.  The split rule refines by a short arc near the vertex of
        each displaced end, so it only cuts corners off the faces there.
        Chaining each exit's run through the exits it reaches, a chain
        back to its exit is a corner piece of exits and new darts alone,
        which takes a new index in its face's region; a chain that
        reaches another old dart lies in the face's rest, which keeps the
        index, region and counts.  In a face whose old darts are all
        exits (no rest) the largest piece keeps the index.  So only exits
        and new darts change face, and weights and edge counts change by
        those alone.  Region Euler characteristics stay.  The clean
        germs that the old faces with exits or the exits themselves
        index are voided; the new faces index none.

        Euler's formula guards the rule: a refinement makes a face per
        new edge, less one per new vertex, so the faces of new darts
        alone, the corner pieces and the faces with a rest must add up
        to that.  Otherwise some face has two pieces holding untouched
        old darts, which the split rule never makes, and
        InternalInvariantError is raised.
        """
        alpha, sigma, opp, g = self.alpha, self.sigma, self.opp, self.g
        face_of, vertices = self.face_of, len(self.gcount)
        new = range(n, len(alpha))
        face_of += [None] * len(new)
        self.gcount += [len(g.intersection(cycle)) for cycle in self.cycles[vertices:]]
        walks, far, faces = {}, {}, []
        for y in new:
            x = alpha[y]
            if x < n:
                # the old edge ran straight across the new vertices on it
                while y >= n:
                    y = alpha[opp[y]]
                f, far[x], darts, y = face_of[x], y, [x], sigma[alpha[x]]
                while y >= n:
                    face_of[y] = f
                    darts.append(y)
                    y = sigma[alpha[y]]
                walks[x] = darts, y
        for x in new:
            if face_of[x] is None:
                f, darts = len(self.weight) + len(faces), []
                while face_of[x] is None:
                    face_of[x] = f
                    darts.append(x)
                    x = sigma[alpha[x]]
                faces.append((self.face_region[face_of[start]], darts))
        changed = {face_of[x] for x in far}
        self._void(self.clean_by_face, changed)
        self._void(self.clean_by_arrival, far)
        # a face per new edge, less one per new vertex
        pieces = len(changed) + len(new) // 2 - len(self.cycles) + vertices
        closed, rest = {}, set()
        while walks:
            x, (darts, y) = walks.popitem()
            while y in walks:
                more, y = walks.pop(y)
                darts += more
            if y == x:
                closed.setdefault(face_of[x], []).append(darts)
            else:
                rest.add(face_of[x])
        if len(faces) + sum(map(len, closed.values())) + len(rest) != pieces:
            raise InternalInvariantError("a refinement split a face other than at its corners")
        for f, chains in closed.items():
            if f not in rest:
                chains.remove(max(chains, key=len))
            faces += [(self.face_region[f], darts) for darts in chains]
        self._tally(far, far, -1)
        for r, darts in faces:
            for x in darts:
                face_of[x] = len(self.weight)
            self.face_region.append(r)
            self.weight.append(2)
            self.adjacent.append({})
        self._tally((*far, *new), alpha, 1)
        self.candidates += self._candidates(new)


def _checked_subgraph(cmap: CombinatorialMap, subgraph) -> set:
    """A caller's subgraph as a set, checked for range and edge closure."""
    try:
        g = set(subgraph)
    except TypeError:
        raise ValidationError(f"a subgraph is a set of darts, not {subgraph!r}") from None
    for d in g:
        if type(d) is not int or not 0 <= d < cmap.dart_count:
            raise ValidationError(f"subgraph dart {d!r} out of range")
        if cmap.alpha[d] not in g:
            raise ValidationError(
                "subgraph is not closed under the edge involution"
            )
    return g


def complement(cmap: CombinatorialMap, subgraph=frozenset()) -> _Complement:
    """The complement of a caller's subgraph in a map, checked
    here once: the state that complement_regions, find_cutting_curve,
    is_essential and add_cutting_curve take, as reduce's own unchecked
    state does."""
    if not isinstance(cmap, CombinatorialMap):
        raise ValidationError(f"complement needs a CombinatorialMap, not {type(cmap).__name__}")
    return _Complement(cmap, _checked_subgraph(cmap, subgraph))


def complement_regions(state: _Complement) -> tuple:
    """Cut the surface along the subgraph and describe every piece.

    Pieces are unions of the map's faces glued across edges outside the
    subgraph.  Each Region carries its faces and its Euler
    characteristic (a disk iff it equals 1).
    """
    faces_in = [[] for _ in state.euler2]
    for f, r in enumerate(state.face_region):
        faces_in[r].append(f)
    return tuple(
        Region(faces=tuple(faces), euler=state.euler2[r] // 2)
        for r, faces in enumerate(faces_in)
    )


class CuttingCurve(namedtuple("CuttingCurve", "darts kind")):
    """A piece of unused strand material to add to the subgraph.

    darts lists the strand walk in order.  Kinds I to IV are closed
    loops extracted from strands away from the subgraph (I: the whole
    strand is simple; II: the loop closes at its starting vertex; III:
    the remaining strand material stays off the loop; IV: it crosses
    the loop).  Kind V is a simple arc between subgraph points, kind
    VI a lasso: a tail from the subgraph to an interior loop.
    """

    __slots__ = ()


def _clean_corner_pattern(opp, germs: set) -> bool:
    """True for three germs containing a strand-opposite pair or four
    germs forming two strand-opposite pairs: two or four of them have
    their strand opposite among them."""
    paired = germs.intersection(map(opp.__getitem__, germs))
    return len(germs) in (3, 4) and len(paired) == 2 * len(germs) - 4


def _checked_darts(state: _Complement, curve: CuttingCurve):
    """Check a caller's cutting curve against the state: unused material
    and a strand walk, a loop (kinds I to IV) on no vertex twice back to
    its first vertex, an arc or lasso the walk _walk_arc makes."""
    if not isinstance(curve, CuttingCurve):
        raise ValidationError(f"is_essential judges a CuttingCurve, not {type(curve).__name__}")
    if not isinstance(curve.darts, Sequence):
        raise ValidationError(f"cutting curve darts are a sequence, not {curve.darts!r}")
    darts = tuple(curve.darts)
    if not darts:
        raise ValidationError("empty cutting curve")
    alpha, opp, owner, gcount, g = state.alpha, state.opp, state.owner, state.gcount, state.g
    for d in darts:
        if type(d) is not int or not 0 <= d < len(alpha):
            raise ValidationError(f"cutting curve dart {d!r} out of range")
        if d in g or alpha[d] in g:
            raise ValidationError("cutting curve reuses subgraph material")
    if curve.kind in ("I", "II", "III", "IV"):
        if g:
            raise ValidationError(
                "loop cutting curves (kinds I-IV) apply only to an empty subgraph"
            )
        walk = (
            all(opp[alpha[d]] == e for d, e in zip(darts, darts[1:]))
            and owner[alpha[darts[-1]]] == owner[darts[0]]
            and len({owner[d] for d in darts}) == len(darts)
        )
    elif curve.kind in ("V", "VI"):
        if not gcount[owner[darts[0]]]:
            shape = "arc" if curve.kind == "V" else "lasso"
            raise ValidationError(f"{shape} cutting curve must start on the subgraph")
        walk = _walk_arc(alpha, opp, owner, gcount, darts[0]) == (darts, curve.kind)
    else:
        raise ValidationError(f"unknown cutting curve kind {curve.kind!r}")
    if not walk:
        raise ValidationError(f"kind {curve.kind} cutting curve is not a strand walk")


def is_essential(state: _Complement, curve: CuttingCurve) -> "_Cut | None":
    """Judge a caller's cutting curve: the cut that commits it, or None
    when it is inessential (the cut leaves a disk piece bounded by curve
    alone, or by one run of curve and one of old boundary).  The curve
    is checked (_checked_darts), then judged as reduce judges its own
    (trial)."""
    _checked_darts(state, curve)
    return state.trial(curve)


def add_cutting_curve(state: _Complement, cut: _Cut) -> _Complement:
    """Commit a cut; returns the state after it: this one, updated in
    place, or the refined copy a one-vertex arc was judged on.

    A cut not yet refined has its curve refined first (_refine: an arc
    or lasso end whose direct attachment would spoil the corner pattern
    at its vertex is displaced; old darts keep their sigma, new ones
    are numbered from the old dart count up), and is cut again on the
    refined map if the map gained darts.  The stubs the displaced ends
    leave are then made clean while they are candidates (see
    _Complement).  Only a _Cut is taken, and one made before the
    state's last commit is refused.
    """
    if not isinstance(cut, _Cut):
        raise ValidationError(f"add_cutting_curve takes a cut, not {type(cut).__name__}")
    if cut.step != state.step or cut.state.step != cut.step:
        raise ValidationError("the cut was made before the state's last commit")
    state = cut.state
    if not cut.refined:
        n = len(state.alpha)
        added = state._refine(cut.curve.kind, cut.curve.darts)
        if len(state.alpha) > n:
            cut = state._cut(added, cut.region, cut.curve)
    g, gcount, cycles = state.g, state.gcount, state.cycles
    state.step += 1
    fresh = [v for v in cut.touched if not gcount[v]]
    g |= cut.added
    for v, n in cut.touched.items():
        gcount[v] += n
    for f, change in cut.weight.items():
        state.weight[f] += change
    state._void(state.clean_by_face, cut.weight)
    state._void(state.clean_by_arrival, (x for v in fresh for x in cycles[v]))
    adjacent = state.adjacent
    for (a, b), n in cut.removed.items():
        left = adjacent[a][b] - n
        if left:
            adjacent[a][b] = adjacent[b][a] = left
        else:
            del adjacent[a][b], adjacent[b][a]
    for faces, euler2 in zip(cut.closed, cut.euler2):
        for f in faces:
            state.face_region[f] = len(state.euler2)
        state.euler2.append(euler2)
    state.euler2[cut.region] = cut.euler2[-1]
    candidates = state.candidates
    for x in cut.added:
        i = bisect_left(candidates, x)
        if i < len(candidates) and candidates[i] == x:
            del candidates[i]
    for v in fresh:
        for x in cycles[v]:
            if x not in g:
                insort(candidates, x)
    if 2 in cut.euler2:
        state.candidates = [
            x for x in candidates if state.euler2[state.region_of(x)] != 2
        ]
    # the stubs of displaced ends, rejected by their corner pieces
    while state.stubs:
        germ, swept = state.stubs.pop()
        i = bisect_left(state.candidates, germ)
        if state.candidates[i:i + 1] == [germ]:
            state._clean("V", (germ,), {state.face_of[x] for x in swept})
    return state


def _strand_orbit(alpha, opp, start: int) -> list:
    orbit = [start]
    d = opp[alpha[start]]
    steps = 0
    while d != start:
        if d is None:
            raise InternalInvariantError("strand walk hit a dangling end")
        orbit.append(d)
        d = opp[alpha[d]]
        steps += 1
        if steps > len(alpha):
            raise InternalInvariantError("strand walk failed to close")
    return orbit


def _extract_loop(alpha, opp, owner, start: int):
    """Extract a simple closed loop from the strand through start.

    Returns (darts, kind): kind I when the whole strand is simple, II
    when the loop closes at the walk's starting vertex, III when the
    leftover strand material stays off the loop's other vertices, IV
    when it crosses them.
    """
    orbit = _strand_orbit(alpha, opp, start)
    length = len(orbit)
    verts = [owner[d] for d in orbit]
    seen = {verts[0]: 0}
    for t in range(1, length + 1):
        u = verts[t] if t < length else verts[0]
        if u in seen:
            i = seen[u]
            if t == length and i == 0:
                return tuple(orbit), "I"
            loop = tuple(orbit[i:t])
            if i == 0:
                return loop, "II"
            loop_verts = set(verts[i:t])
            rest_verts = set(verts[:i]) | set(verts[t:])
            if rest_verts & (loop_verts - {verts[i]}):
                return loop, "IV"
            return loop, "III"
        seen[u] = t
    raise InternalInvariantError("strand walk never revisited a vertex")


def _walk_arc(alpha, opp, owner, g_vertex, start: int):
    """Walk unused strand material from a germ at a subgraph vertex.

    Stops on reaching another subgraph vertex (a simple arc, kind V) or
    on revisiting an interior vertex (a lasso, kind VI).
    """
    darts = [start]
    visited = set()
    steps = 0
    while True:
        arrival = alpha[darts[-1]]
        u = owner[arrival]
        if g_vertex[u]:
            return tuple(darts), "V"
        if u in visited:
            return tuple(darts), "VI"
        visited.add(u)
        nxt = opp[arrival]
        if nxt is None:
            return None, None
        darts.append(nxt)
        steps += 1
        if steps > len(alpha):
            raise InternalInvariantError("arc walk failed to terminate")


def find_cutting_curve(state: _Complement) -> _Cut:
    """Find the next essential cutting curve of the state: the cut that
    commits it, with the curve as cut.curve.

    Calling this on a state whose complement is already all disks is a
    precondition violation (DomainError).  Candidates are tried
    deterministically, lowest dart first, skipping clean germs unwalked.
    For an empty subgraph the candidates are simple loops extracted
    from the strands (kinds I to IV); afterwards they are arcs and
    lassos grown from boundary germs of non-disk regions (kinds V and
    VI).  Exhausting all candidates, or finding only inessential ones,
    contradicts the validated filling input and raises
    InternalInvariantError.
    """
    if state.fills:
        raise DomainError(
            "the subgraph already fills: every complementary region is a disk"
        )
    alpha, opp, owner = state.alpha, state.opp, state.owner
    if state.g:
        clean, gcount = state.clean, state.gcount
        walks = (
            _walk_arc(alpha, opp, owner, gcount, x) for x in state.candidates if x not in clean
        )
    else:
        walks = (_extract_loop(alpha, opp, owner, d) for d in range(len(alpha)))
    tried = 0
    for darts, kind in walks:
        if darts is None:
            continue
        tried += 1
        cut = state.trial(CuttingCurve(darts=darts, kind=kind))
        if cut is not None:
            return cut
    # a clean candidate counts as tried: its curve was rejected
    if tried or any(x in state.clean for x in state.candidates):
        raise InternalInvariantError(
            "every candidate cutting curve is inessential although a non-disk "
            "complementary region remains"
        )
    raise InternalInvariantError(
        "a non-disk complementary region admits no cutting curve; the input "
        "appears to contain parallel homotopic components"
    )


def _smoothed_subgraph_map(state: _Complement):
    """The subgraph as a standalone map, two-valent vertices smoothed,
    and the effective degree of every complementary region.

    Vertices of subgraph valence two become interior points of edges.
    Three-valent vertices keep a straight corner mark so face tracing
    of the result discounts the corner between the two edge germs that
    continue each other.  A region's effective degree counts its corner
    gaps between consecutive subgraph germs at the remaining vertices,
    straight corners (gaps between strand-opposite germs) discounted.
    """
    g, owner, gcount = state.g, state.owner, state.gcount
    opp, alpha, sigma = state.opp, state.alpha, state.sigma

    def next_germ(d):
        # the subgraph germ after d counterclockwise around its vertex
        x = sigma[d]
        while x not in g:
            x = sigma[x]
        return x

    real = sorted(d for d in g if gcount[owner[d]] >= 3)
    if not real:
        raise InternalInvariantError(
            "subgraph has no vertices of valence three or more"
        )
    index = {d: i for i, d in enumerate(real)}

    alpha_out = [None] * len(real)
    consumed = set()
    for d in real:
        e = alpha[d]
        hops = 0
        while gcount[owner[e]] == 2:
            other = next_germ(e)
            consumed.update((e, other))
            e = alpha[other]
            hops += 1
            if hops > len(alpha):
                raise InternalInvariantError("edge smoothing failed to terminate")
        alpha_out[index[d]] = index[e]
    for d in g:
        if gcount[owner[d]] == 2 and d not in consumed:
            raise InternalInvariantError(
                "subgraph contains a vertex-free circle component"
            )

    sigma_out = [None] * len(real)
    straight_out = set()
    degrees = [0] * len(state.euler2)
    for d in real:
        x = next_germ(d)
        sigma_out[index[d]] = index[x]
        if opp[d] == x:
            straight_out.add(index[d])
        else:
            degrees[state.region_of(sigma[d])] += 1

    return CombinatorialMap._trusted(
        dart_count=len(real),
        alpha=tuple(alpha_out),
        sigma=tuple(sigma_out),
        straight_corners=frozenset(straight_out),
    ), degrees


class ReductionCertificate(namedtuple(
    "ReductionCertificate",
    "genus passed filling min_degree_ok degree_sum_ok face_degrees k subgraph_darts "
    "input_dart_count ambient_map reduced_map steps iterations",
)):
    """Full record of one reduction run and its checks.

    Subgraph darts below input_dart_count are material of the input
    map; higher ones were introduced by the attachment split rule.
    """

    __slots__ = ()

    def summary(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        degrees = ",".join(str(m) for m in self.face_degrees)
        return (
            f"[{tag}] reduction genus={self.genus} k={self.k} "
            f"degrees=[{degrees}] iterations={self.iterations}"
        )

    def as_dict(self) -> dict:
        return self._asdict()

    def to_json(self) -> str:
        return json_text(self.as_dict())


def reduce(filling: FillingMap) -> ReductionCertificate:
    """Grow a filling subgraph with clean corners and certify it.

    Cutting curves are added until the complement is a union of disks.
    The certificate reports the effective face degrees, checks that
    every degree is at least five and that their excesses over four sum
    to 8g - 8, and logs every step.  The iteration count is capped by
    the input edge count; exhausting the cap or running out of
    essential cutting curves raises InternalInvariantError rather than
    returning a bad certificate silently.
    """
    if not isinstance(filling, FillingMap):
        raise ValidationError("reduce expects a FillingMap from validate_input")
    genus = filling.genus
    input_dart_count = filling.cmap.dart_count
    state = _Complement(filling.cmap, frozenset())
    steps = []
    budget = filling.cmap.dart_count // 2  # the edge count
    iterations = 0

    def abort(message):
        log = "; ".join(steps) if steps else "no steps taken"
        raise InternalInvariantError(f"{message} [step log: {log}]")

    while not state.fills:
        if iterations >= budget:
            abort(
                "reduction exceeded its iteration budget of one step per input edge"
            )
        try:
            cut = find_cutting_curve(state)
        except InternalInvariantError as err:
            abort(str(err))
        state = add_cutting_curve(state, cut)
        iterations += 1
        steps.append(
            f"step {iterations}: kind {cut.curve.kind} cutting curve, darts "
            f"{list(cut.curve.darts)}, essential"
        )

    if len(state.alpha) > input_dart_count and all(
        len(cycle) == 4 for cycle in filling.cmap.vertices()
    ):
        # an input with only double points should embed its subgraph
        # directly; a fired split rule here is a counterexample worth
        # surfacing, not something to hide
        abort("the attachment split rule fired on an input with only double points")

    reduced, degrees = _smoothed_subgraph_map(state)
    face_degrees = tuple(sorted(degrees, reverse=True))
    k = len(face_degrees)
    min_degree_ok = all(m >= 5 for m in face_degrees)
    degree_sum_ok = sum(m - 4 for m in face_degrees) == 8 * genus - 8
    passed = min_degree_ok and degree_sum_ok
    return ReductionCertificate(
        genus=genus,
        passed=passed,
        filling=True,
        min_degree_ok=min_degree_ok,
        degree_sum_ok=degree_sum_ok,
        face_degrees=face_degrees,
        k=k,
        subgraph_darts=tuple(sorted(state.g)),
        input_dart_count=input_dart_count,
        ambient_map=to_interchange(state.freeze()),
        reduced_map=to_interchange(reduced),
        steps=tuple(steps),
        iterations=iterations,
    )
