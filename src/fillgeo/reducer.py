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

import json
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass, fields
from typing import NamedTuple

from .errors import DomainError, InternalInvariantError, ValidationError
from .polygeom import _check_genus
from .surfmap import CombinatorialMap, from_interchange, pair_strands, to_interchange


@dataclass(frozen=True)
class FillingMap:
    """A validated multi-curve map together with its surface genus."""

    cmap: CombinatorialMap
    genus: int


def validate_input(map_or_data, genus: int) -> FillingMap:
    """Check that a map is a filling multi-curve on the stated surface.

    Rejects disconnected maps, odd or small valences, monogon and
    bigon faces, and maps whose rotation-system genus differs from the
    stated genus (the curve then fails to fill that surface).
    """
    _check_genus(genus)
    if isinstance(map_or_data, CombinatorialMap):
        cmap = map_or_data
    else:
        cmap = from_interchange(map_or_data)
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
    e = len(cmap.edges())
    faces = cmap.faces()
    for cycle in faces:
        if len(cycle) <= 2:
            raise ValidationError(
                f"face of degree {len(cycle)} (monogon or bigon) is not allowed"
            )
    euler = v - e + len(faces)
    map_genus = (2 - euler) // 2
    if map_genus != genus:
        raise ValidationError(
            f"map fills a genus-{map_genus} surface, not genus {genus}: "
            "the multi-curve does not fill the stated surface"
        )
    return FillingMap(cmap=cmap, genus=genus)


@dataclass(frozen=True)
class Region:
    """One complementary piece of a subgraph: its faces and Euler characteristic."""

    faces: tuple
    euler: int

    @property
    def is_disk(self) -> bool:
        return self.euler == 1


class _Cut(NamedTuple):
    """What committing one cutting curve changes in a complement.

    added holds the curve's darts in both directions and touched how
    many of them lie at each vertex; weight is the change of each
    face's doubled Euler share and removed the number of curve edges
    between each pair of distinct faces (lower face first).  The curve
    lies in one region: closed lists the faces of each piece the cut
    splits off it, and euler2 the doubled Euler characteristic of those
    pieces followed by that of the rest, which keeps the region's index.
    curve is the cutting curve, state the complement the cut was made
    in and step that complement's step then.  A curve judged as its
    direct attachment whose commit fires the split rule carries the end
    germs to displace (ends); add_cutting_curve refines for them.
    """

    added: frozenset
    touched: Counter
    weight: Counter
    removed: Counter
    region: int
    closed: list
    euler2: list
    curve: "CuttingCurve"
    state: "_Complement"
    step: int
    ends: tuple = ()


class _MutableMap:
    """A map and a subgraph as mutable tables, refined in place by the split rule.

    The tables are alpha, sigma and the straight corners, the vertex
    rotations (cycles), the vertex of each dart (owner) and the strand
    opposites (opp).  _refine commits a curve's displaced ends, for
    _Complement and, on the bare tables, as the oracle test's reference
    commit; freeze gives the map as a CombinatorialMap.  Until the
    first refinement the tables are the frozen map's own tuples, which
    _refine turns into lists before it changes them.
    """

    def __init__(self, cmap: CombinatorialMap, subgraph):
        self._frozen = cmap
        self.alpha, self.sigma = cmap.alpha, cmap.sigma
        self.straight = set(cmap.straight_corners)
        self.cycles = cmap.vertices()
        self.owner = cmap.vertex_of_dart()
        self.opp = cmap.strand_opposites()
        self.g = set(subgraph)

    def freeze(self) -> CombinatorialMap:
        """The live map as a CombinatorialMap: the map this one was built
        from, that same object, until a refinement adds darts."""
        if self._frozen.dart_count < len(self.alpha):
            self._frozen = CombinatorialMap(
                dart_count=len(self.alpha),
                alpha=tuple(self.alpha),
                sigma=tuple(self.sigma),
                straight_corners=frozenset(self.straight),
            )
        return self._frozen

    def _split_ends(self, kind: str, darts) -> tuple:
        """The end germs of a curve that its commit displaces off their vertex.

        This is the one split rule: an end attaches directly when the
        subgraph germs at its vertex form a clean corner pattern with
        it, and is displaced (see _deviate) otherwise.  The start is
        attached first and an arc's arrival after its other edges.  A
        displaced start leaves its germ off the subgraph, and an arrival
        germ that the start's sweep crosses ends at that four-valent
        crossing, where it always attaches directly.
        """
        if kind not in ("V", "VI"):
            return ()
        g, opp, sigma, alpha = self.g, self.opp, self.sigma, self.alpha
        cycles, owner = self.cycles, self.owner
        start = darts[0]
        germs = [x for x in cycles[owner[start]] if x in g]
        ends = () if _clean_corner_pattern(opp, germs + [start]) else (start,)
        if kind == "V":
            arrival = alpha[darts[-1]]
            placed = {x for d in darts[:-1] for x in (d, alpha[d])}
            if ends:
                placed.discard(start)
                swept = sigma[start]
                while swept not in g and swept != arrival:
                    swept = sigma[swept]
                if swept == arrival:
                    return ends
            else:
                placed.add(start)
            germs = [x for x in cycles[owner[arrival]] if x in g or x in placed]
            if not _clean_corner_pattern(opp, germs + [arrival]):
                ends += (arrival,)
        return ends

    def _refine(self, kind: str, darts, ends: tuple) -> frozenset:
        """Refine the map in place for a curve, displacing the end germs
        that _split_ends chose for it; returns the curve material.

        The start is displaced first; an arc's arrival is displaced
        after the arc's other edges are placed, and a one-edge arc's
        start is placed only with it.  New darts are numbered from the
        old dart count up, in the order _deviate makes them, and form
        new vertices, numbered by least dart; old darts keep their
        sigma.  The subgraph gains only the halves of its subdivided
        edges, so the regions stay as they were.
        """
        n, start = len(self.alpha), darts[0]
        if ends:
            for name, table in vars(self).items():
                if isinstance(table, tuple):
                    setattr(self, name, list(table))
        placed = set()
        darts = list(darts)
        if darts[0] in ends:
            darts[0] = self._deviate(darts[0], placed)
        if kind == "V":
            for d in darts[:-1]:
                placed.update((d, self.alpha[d]))
            arrival = self.alpha[darts[-1]]
            if arrival in ends:
                arrival = self._deviate(arrival, placed)
            darts = [arrival, darts[0]]
        for d in darts:
            placed.update((d, self.alpha[d]))
        if len(self.alpha) > n:
            self._retrace(n, start)
        return frozenset(placed)

    def _new_dart(self) -> int:
        for table in (self.alpha, self.sigma, self.owner, self.opp):
            table.append(None)
        return len(self.alpha) - 1

    def _subdivide(self, d: int, placed: set):
        """Split the edge of d at a new point near v(d).

        Returns (near, far), the new darts there: near faces v(d), far
        faces the old far endpoint; _vertex makes them a vertex.  Both
        halves inherit the membership of d in the subgraph or in placed.
        """
        alpha = self.alpha
        a = alpha[d]
        near = self._new_dart()
        far = self._new_dart()
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
        terminal germ.
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

        # clip the terminal edge just short of the vertex; the gap
        # between the two old edge halves is straight
        near0, far0 = self._subdivide(germ, placed)
        prev = self._new_dart()
        self._vertex((near0, far0, prev), near0)

        for gamma in crossed:
            near, far = self._subdivide(gamma, placed)
            fw = self._new_dart()
            pw = self._new_dart()
            self._vertex((near, pw, far, fw))
            alpha[prev] = pw
            alpha[pw] = prev
            placed.update((prev, pw))
            prev = fw

        near, far = self._subdivide(landing, placed)
        q = self._new_dart()
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
        """Bring the face tables up to date after a refinement made darts
        n and up for the curve that starts at the old dart start; the
        bare map keeps none."""


class _Complement(_MutableMap):
    """The complement of a subgraph in a map, kept up to date as curves are cut.

    The state owns the map as the mutable tables of _MutableMap and the
    face of each dart (face_of).  The surface cut along the subgraph
    falls into regions: unions of the map's faces glued across edges
    outside the subgraph.  Per face
    the state keeps its region and its doubled share of the region's
    Euler characteristic: 2 for the face, -1 for each of its darts (a
    dart outside the subgraph is half an interior edge) and another -1
    for each subgraph dart (a boundary side), +2 for each corner gap
    and each interior vertex assigned to it (at the first dart of its
    rotation).  Per region it keeps the doubled Euler characteristic
    (a disk has 2), per pair of distinct faces the number of edges
    outside the subgraph between them, per vertex its number of
    subgraph germs, and the candidate germs of the arc search, in dart
    order: germs outside the subgraph at subgraph vertices of non-disk
    regions.

    reduce builds one per run and keeps it current through every
    commit (add_cutting_curve), refined maps included: the split rule
    refines the tables in place (_refine) and retraces only the faces
    it changed.  A trial judges a curve as its direct attachment, from
    the faces and vertices it touches alone (see trial); a one-vertex
    arc with an end displaced is judged on a refined copy.  freeze
    gives the live map as a CombinatorialMap.  The subgraph is taken as
    valid: complement checks a caller's (_checked_subgraph), and the
    reducer's own subgraphs are.

    Most trials of a reduction reject a curve that an earlier iteration
    already rejected, so the state keeps a memo of rejections.  Each
    commit counts as one step, and every face and vertex it touches is
    stamped with it: add_cutting_curve stamps the faces of the curve's darts (the
    only faces whose Euler shares and edge counts it changes) and the
    vertices the curve reaches, and _retrace every face it retraces,
    every new vertex and the vertex of every old dart whose alpha it
    changed.  A rejection made on this
    state (not on a refined copy) records the curve's kind and darts,
    the faces of the disk piece P that rejected it, other than the
    unwalked rest of the region, and the curve's vertices; the entry
    stays true (_still_rejected) while none of those has been stamped
    since.  That is sound: every edge between a face of P and a face
    outside it is a subgraph edge or a curve edge, and a commit only
    adds subgraph material, so while no face of P is retraced P stays a
    piece of the cut, and its faces keep their Euler shares.  What the
    curve adds to those shares, which end the split rule displaces, and
    the material changes of P's boundary are read from the germs at the
    curve's own vertices, which are unchanged too.  So P is still a disk
    piece with at most two changes, and the curve is still inessential.
    A copy keeps a memo of its own, so a state stays usable after a cut
    judged on its copy was committed.
    """

    def __init__(self, cmap: CombinatorialMap, subgraph):
        super().__init__(cmap, subgraph)
        alpha, g = self.alpha, self.g
        face_of = self.face_of = cmap.face_of_dart()
        faces = cmap.faces()
        parent = list(range(len(faces)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for d in range(cmap.dart_count):
            if d not in g and d < alpha[d]:
                a, b = find(face_of[d]), find(face_of[alpha[d]])
                if a != b:
                    parent[a] = b
        face_root = [find(f) for f in range(len(faces))]
        region_index = {r: i for i, r in enumerate(sorted(set(face_root)))}
        self.face_region = [region_index[r] for r in face_root]

        self.gcount = [sum(x in g for x in cycle) for cycle in self.cycles]
        self.weight = [0] * len(faces)
        self.adjacent = [{} for _ in faces]
        self._tally(enumerate(faces), range(len(faces)))
        self.euler2 = [0] * len(region_index)
        for f, r in enumerate(self.face_region):
            self.euler2[r] += self.weight[f]
        self.candidates = self._candidates(range(cmap.dart_count))
        self.step = 0
        self.face_touched = [0] * len(faces)
        self.vertex_touched = [0] * len(self.cycles)
        self.rejected = {}

    def _candidates(self, darts) -> list:
        """The candidate germs among darts, in their order."""
        g, gcount, owner = self.g, self.gcount, self.owner
        return [
            d for d in darts
            if d not in g and gcount[owner[d]] and self.euler2[self.region_of(d)] != 2
        ]

    def _tally(self, faces, listed):
        """Weigh each (face, darts) pair of faces and count its edges
        outside the subgraph to other faces, on both sides of an edge
        whose far face is not listed."""
        g, alpha, face_of, owner = self.g, self.alpha, self.face_of, self.owner
        cycles, gcount, adjacent = self.cycles, self.gcount, self.adjacent
        for f, darts in faces:
            share = 2 - len(darts)
            for x in darts:
                v = owner[x]
                if not gcount[v] and cycles[v][0] == x:
                    share += 2
                if x in g:
                    # a boundary side, and the corner gap after alpha(x),
                    # which lies in the same face
                    share += 1
                    continue
                b = face_of[alpha[x]]
                if b != f:
                    adjacent[f][b] = adjacent[f].get(b, 0) + 1
                    if b not in listed:
                        adjacent[b][f] = adjacent[b].get(f, 0) + 1
            self.weight[f] = share

    def copy(self) -> "_Complement":
        """A copy to refine and cut, leaving this complement as it is."""
        twin = object.__new__(type(self))
        twin.__dict__ = {
            name: value.copy() if isinstance(value, (list, set, dict)) else value
            for name, value in vars(self).items()
        }
        twin.adjacent = [dict(counts) for counts in self.adjacent]
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
        attachment and apply refines the map for it.  Only an arc with
        both ends at one vertex and an end displaced is not: its
        displaced end can land past the other end along the boundary,
        so it is refined and cut on a copy of this complement, which
        add_cutting_curve then takes as the next state.

        The curve is taken as valid for this complement: the reducer's
        own candidates are, and is_essential checks an outside one.
        """
        alpha, owner, kind, darts = self.alpha, self.owner, curve.kind, curve.darts
        ends = self._split_ends(kind, darts)
        region = self.region_of(darts[0])
        if ends and kind == "V" and owner[darts[0]] == owner[alpha[darts[-1]]]:
            state = self.copy()
            cut = state._cut(state._refine(kind, darts, ends), region, curve)
        else:
            added = frozenset(darts) | frozenset(alpha[d] for d in darts)
            cut = self._cut(added, region, curve, ends)
        piece = cut.state._pushes_off(cut)
        if piece is None:
            return cut
        if cut.state is self and piece < len(cut.closed):
            self.rejected[kind, tuple(darts)] = (self.step, cut.closed[piece], tuple(cut.touched))
        return None

    def _still_rejected(self, kind: str, darts: tuple) -> bool:
        """Whether a rejection of the curve is on record and no face of
        its disk piece and none of its vertices was touched since."""
        entry = self.rejected.get((kind, darts))
        if entry is None:
            return False
        step, faces, vertices = entry
        face_touched, vertex_touched = self.face_touched, self.vertex_touched
        return all(face_touched[f] <= step for f in faces) and all(
            vertex_touched[v] <= step for v in vertices
        )

    def _cut(self, added: frozenset, region: int, curve, ends=()) -> _Cut:
        """The cut of curve, which adds the edges of added inside region,
        attached directly at its ends or with ends still to displace."""
        alpha, face_of, cycles = self.alpha, self.face_of, self.cycles
        touched = Counter(self.owner[x] for x in added)
        # each added dart is a boundary side (-1) and opens a corner gap
        # in the face of its alpha (+2, counted at its own face here,
        # since added is closed under alpha)
        weight = Counter(face_of[x] for x in added)
        for v in touched:
            if not self.gcount[v]:
                weight[face_of[cycles[v][0]]] -= 2
        removed = Counter()
        for x in added:
            a, b = face_of[x], face_of[alpha[x]]
            if a < b:
                removed[a, b] += 1
        emptied = [(a, b) for (a, b), n in removed.items() if self.adjacent[a][b] == n]
        closed = self._split(emptied, removed) if emptied else []
        euler2 = [sum(self.weight[f] + weight[f] for f in faces) for faces in closed]
        euler2.append(self.euler2[region] + sum(weight.values()) - sum(euler2))
        return _Cut(added, touched, weight, removed, region, closed, euler2, curve, self,
                    self.step, ends)

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
        alpha, sigma, face_of, g, added = self.alpha, self.sigma, self.face_of, self.g, cut.added
        piece = {f: i for i, faces in enumerate(cut.closed) for f in faces}
        rest = len(cut.closed)
        changes = Counter()
        for v in cut.touched:
            germs = [x for x in self.cycles[v] if x in g or x in added]
            for i, p in enumerate(germs):
                if (alpha[p] in added) != (germs[(i + 1) % len(germs)] in added):
                    changes[piece.get(face_of[sigma[p]], rest)] += 1
        pieces = sorted({piece.get(face_of[x], rest) for x in added})
        return next((p for p in pieces if cut.euler2[p] == 2 and changes[p] <= 2), None)

    def _split(self, emptied: list, removed: Counter) -> list:
        """The faces of every piece but one that a cut splits a region into.

        A region can only fall apart where the cut empties an adjacency
        between two faces.  One search starts at each face of the
        emptied adjacencies and they take one face each in turn;
        searches that meet merge, and a search that runs out has found
        a whole piece.  The last search left is in the rest of the
        region, which is never walked, so the cost is bounded by the
        pieces split off.
        """
        adjacent = self.adjacent
        sources = sorted({f for pair in emptied for f in pair})
        search_of = {f: i for i, f in enumerate(sources)}
        parent = list(range(len(sources)))
        queues = {i: deque([f]) for i, f in enumerate(sources)}
        members = {i: [f] for i, f in enumerate(sources)}
        closed = []
        while len(queues) > 1:
            for i in list(queues):
                queue = queues.get(i)
                if queue is None or len(queues) == 1:
                    continue
                if not queue:
                    del queues[i]
                    closed.append(members.pop(i))
                    continue
                f = queue.popleft()
                for h, n in adjacent[f].items():
                    if n == removed[(f, h) if f < h else (h, f)]:
                        continue
                    j = search_of.get(h)
                    if j is None:
                        search_of[h] = i
                        members[i].append(h)
                        queue.append(h)
                        continue
                    while parent[j] != j:
                        j = parent[j]
                    if j != i:
                        parent[j] = i
                        queue.extend(queues.pop(j))
                        members[i].extend(members.pop(j))
        return closed

    def _retrace(self, n: int, start: int):
        """Also retrace the faces a refinement changed.

        They are the orbits through a dart whose alpha changed: the new
        darts and the old darts of a subdivided edge.  Traced from their
        least such dart, the first orbit through an old face keeps its
        index and region and the others take new indices; a face of new
        darts alone lies in the region of start.  Each is weighed and its
        adjacencies counted afresh.  A refinement leaves each region's
        Euler characteristic as it was.  The retraced faces, the new
        vertices and the vertices of the old darts whose alpha changed
        are stamped with the step of the commit under way.
        """
        region = self.region_of(start)
        alpha, sigma, g = self.alpha, self.sigma, self.g
        face_of, adjacent = self.face_of, self.adjacent
        now, face_touched, vertex_touched = self.step + 1, self.face_touched, self.vertex_touched
        new = range(n, len(alpha))
        face_of += [None] * len(new)
        self.gcount += [sum(x in g for x in cycle) for cycle in self.cycles[len(self.gcount):]]
        vertex_touched += [now] * (len(self.cycles) - len(vertex_touched))
        old = [alpha[y] for y in new if alpha[y] < n]
        for x in old:
            vertex_touched[self.owner[x]] = now
        changed = sorted({*new, *old})
        ids = {face_of[x] for x in changed if x < n}
        for f in ids:
            face_touched[f] = now
            for h in adjacent[f]:
                if h not in ids:
                    del adjacent[h][f]
            adjacent[f] = {}
        traced, seen = {}, set()
        for x in changed:
            if x in seen:
                continue
            f = face_of[x]
            if f is None or f in traced:
                self.face_region.append(region if f is None else self.face_region[f])
                f = len(self.weight)
                self.weight.append(0)
                adjacent.append({})
                face_touched.append(now)
            traced[f] = []
            while x not in seen:
                seen.add(x)
                traced[f].append(x)
                face_of[x] = f
                x = sigma[alpha[x]]
        self._tally(traced.items(), traced)
        self.candidates += self._candidates(new)


def _checked_subgraph(cmap: CombinatorialMap, subgraph) -> set:
    """A caller's subgraph as a set, checked for range and edge closure."""
    g = set(subgraph)
    for d in g:
        if not isinstance(d, int) or not 0 <= d < cmap.dart_count:
            raise ValidationError(f"subgraph dart {d!r} out of range")
        if cmap.alpha[d] not in g:
            raise ValidationError(
                "subgraph is not closed under the edge involution"
            )
    return g


def complement(cmap: CombinatorialMap, subgraph=frozenset()) -> _Complement:
    """The complement of a caller's subgraph, checked here once: the
    state that complement_regions, find_cutting_curve, is_essential and
    add_cutting_curve take, as reduce's own unchecked state does."""
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


@dataclass(frozen=True)
class CuttingCurve:
    """A piece of unused strand material to add to the subgraph.

    darts lists the strand walk in order.  Kinds I to IV are closed
    loops extracted from strands away from the subgraph (I: the whole
    strand is simple; II: the loop closes at its starting vertex; III:
    the remaining strand material stays off the loop; IV: it crosses
    the loop).  Kind V is a simple arc between subgraph points, kind
    VI a lasso: a tail from the subgraph to an interior loop.
    """

    darts: tuple
    kind: str


def _clean_corner_pattern(opp, germs) -> bool:
    """True for three germs containing a strand-opposite pair or four
    germs forming two strand-opposite pairs."""
    gset = set(germs)
    if len(gset) == 3:
        return any(opp[d] is not None and opp[d] in gset for d in gset)
    if len(gset) == 4:
        return all(opp[d] is not None and opp[d] in gset for d in gset)
    return False


def _checked_darts(state: _Complement, curve: CuttingCurve):
    """Check a caller's cutting curve against the state: unused material
    and a strand walk, a loop (kinds I to IV) on no vertex twice back to
    its first vertex, an arc or lasso the walk _walk_arc makes."""
    darts = tuple(curve.darts)
    if not darts:
        raise ValidationError("empty cutting curve")
    alpha, opp, owner, gcount, g = state.alpha, state.opp, state.owner, state.gcount, state.g
    for d in darts:
        if not isinstance(d, int) or not 0 <= d < len(alpha):
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

    An arc or lasso end whose direct attachment would spoil the corner
    pattern at its vertex is displaced first (_refine: old darts keep
    their sigma, new ones are numbered from the old dart count up), and
    the refined curve is then committed as a direct attachment.  A cut
    made before the state's last commit is refused.
    """
    if cut.step != state.step or cut.state.step != cut.step:
        raise ValidationError("the cut was made before the state's last commit")
    state = cut.state
    if cut.ends:
        kind, darts = cut.curve.kind, cut.curve.darts
        cut = state._cut(state._refine(kind, darts, cut.ends), cut.region, cut.curve)
    g, gcount, cycles = state.g, state.gcount, state.cycles
    now = state.step = state.step + 1
    face_touched, vertex_touched = state.face_touched, state.vertex_touched
    fresh = [v for v in cut.touched if not gcount[v]]
    g |= cut.added
    for v, n in cut.touched.items():
        gcount[v] += n
        vertex_touched[v] = now
    for f, change in cut.weight.items():
        state.weight[f] += change
        face_touched[f] = now
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
    deterministically, lowest dart first, skipping recorded rejections.
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
        walks = (_walk_arc(alpha, opp, owner, state.gcount, x) for x in state.candidates)
    else:
        walks = (_extract_loop(alpha, opp, owner, d) for d in range(len(alpha)))
    tried = 0
    for darts, kind in walks:
        if darts is None:
            continue
        tried += 1
        if state._still_rejected(kind, darts):
            continue
        cut = state.trial(CuttingCurve(darts=darts, kind=kind))
        if cut is not None:
            return cut
    if tried:
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

    return CombinatorialMap(
        dart_count=len(real),
        alpha=tuple(alpha_out),
        sigma=tuple(sigma_out),
        straight_corners=frozenset(straight_out),
    ), degrees


@dataclass(frozen=True)
class ReductionCertificate:
    """Full record of one reduction run and its checks.

    Subgraph darts below input_dart_count are material of the input
    map; higher ones were introduced by the attachment split rule.
    """

    genus: int
    passed: bool
    filling: bool
    min_degree_ok: bool
    degree_sum_ok: bool
    face_degrees: tuple
    k: int
    subgraph_darts: tuple
    input_dart_count: int
    ambient_map: dict
    reduced_map: dict
    steps: tuple
    iterations: int

    def summary(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        degrees = ",".join(str(m) for m in self.face_degrees)
        return (
            f"[{tag}] reduction genus={self.genus} k={self.k} "
            f"degrees=[{degrees}] iterations={self.iterations}"
        )

    def as_dict(self) -> dict:
        # a shallow dict: asdict would deep-copy both maps' lists
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


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
    budget = len(filling.cmap.edges())
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
