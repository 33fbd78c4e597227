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
import weakref
from dataclasses import dataclass

from .errors import DomainError, InternalInvariantError, ValidationError
from .surfmap import CombinatorialMap, from_interchange, to_interchange


@dataclass(frozen=True)
class FillingMap:
    """A validated multi-curve map together with its surface genus."""

    cmap: CombinatorialMap
    genus: int


def _opposite_table(cmap: CombinatorialMap) -> tuple:
    """Strand continuation at every vertex: the germ opposite each dart.

    Even-valence vertices pair germs half a rotation apart.  A
    three-valent vertex must carry exactly one straight corner, which
    names the two germs that continue each other; the remaining germ
    is a strand endpoint (opposite None).  Kept on the map.
    """
    return cmap.derived("_opposite", _strand_opposites)


def _strand_opposites(cmap: CombinatorialMap) -> tuple:
    opp = [None] * cmap.dart_count
    for cycle in cmap.vertices():
        val = len(cycle)
        if val % 2 == 0:
            half = val // 2
            for i, d in enumerate(cycle):
                opp[d] = cycle[(i + half) % val]
        elif val == 3:
            marked = [d for d in cycle if d in cmap.straight_corners]
            if len(marked) != 1:
                raise ValidationError(
                    "a 3-valent vertex needs exactly one straight corner"
                )
            d = marked[0]
            opp[d] = cmap.sigma[d]
            opp[cmap.sigma[d]] = d
        else:
            raise ValidationError(f"unsupported vertex valence {val}")
    return tuple(opp)


def _face_of(cmap: CombinatorialMap) -> tuple:
    """The index of the face (in cmap.faces()) on the left of each dart."""
    face_of = [0] * cmap.dart_count
    for index, cycle in enumerate(cmap.faces()):
        for d in cycle:
            face_of[d] = index
    return tuple(face_of)


def validate_input(map_or_data, genus: int) -> FillingMap:
    """Check that a map is a filling multi-curve on the stated surface.

    Rejects disconnected maps, odd or small valences, monogon and
    bigon faces, and maps whose rotation-system genus differs from the
    stated genus (the curve then fails to fill that surface).
    """
    if isinstance(genus, bool) or not isinstance(genus, int) or genus < 2:
        raise DomainError(f"genus must be an integer >= 2, got {genus!r}")
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
    """One complementary piece of a subgraph, with its boundary data."""

    faces: tuple
    euler: int
    boundary_cycles: tuple
    boundary_vertex_counts: tuple

    @property
    def is_disk(self) -> bool:
        return self.euler == 1


class _RegionData:
    """The complement of a subgraph in a map: its regions and their data.

    One instance serves a whole reduction step.  The all-disk test and
    the candidate scan read it, and each candidate curve is judged by
    the complement its commit would leave (trial).  The trial that
    proves a curve essential is kept, so that reduce takes it as the
    next state instead of committing the curve again.
    """

    def __init__(self, cmap: CombinatorialMap, g: frozenset):
        self.cmap = cmap
        self.g = g
        face_of = cmap.derived("_face_of", _face_of)
        nfaces = len(cmap.faces())
        parent = list(range(nfaces))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        alpha = cmap.alpha
        for d in range(cmap.dart_count):
            if d not in g and d < alpha[d]:
                a, b = find(face_of[d]), find(face_of[alpha[d]])
                if a != b:
                    parent[a] = b
        face_root = [find(i) for i in range(nfaces)]
        region_index = {r: i for i, r in enumerate(sorted(set(face_root)))}
        self.face_region = [region_index[r] for r in face_root]
        # region of the side (face) on the left of each dart
        self.region_of = [self.face_region[f] for f in face_of]
        self.owner = cmap.vertex_of_dart()
        self.vertex_cycles = cmap.vertices()
        self.g_at_vertex = [
            [d for d in cycle if d in g] for cycle in self.vertex_cycles
        ]
        self.regions = self._regions(len(region_index))
        self.fills = all(r.is_disk for r in self.regions)
        self._accepted = None

    def gaps(self):
        """Yield (vertex, germ, next_germ, region) for every corner gap
        between cyclically consecutive subgraph germs at a vertex."""
        sigma, region_of = self.cmap.sigma, self.region_of
        for v, germs in enumerate(self.g_at_vertex):
            for i, d in enumerate(germs):
                nxt = germs[(i + 1) % len(germs)]
                yield v, d, nxt, region_of[sigma[d]]

    def boundary_successor(self, d: int) -> int:
        """Next subgraph dart along the region contour through d.

        The contour enters the far vertex of d along the germ alpha(d)
        and pivots counterclockwise past interior germs to the first
        subgraph germ, which it traverses outward.
        """
        cmap = self.cmap
        w = cmap.sigma[cmap.alpha[d]]
        steps = 0
        while w not in self.g:
            w = cmap.sigma[w]
            steps += 1
            if steps > cmap.dart_count:
                raise InternalInvariantError("boundary walk failed to close")
        return w

    def boundary_cycles_by_region(self) -> dict:
        cycles_by_region = {}
        seen = set()
        for start in sorted(self.g):
            if start in seen:
                continue
            cycle = []
            d = start
            while d not in seen:
                seen.add(d)
                cycle.append(d)
                d = self.boundary_successor(d)
            cycles_by_region.setdefault(self.region_of[d], []).append(tuple(cycle))
        return cycles_by_region

    def _regions(self, n: int) -> tuple:
        cmap, g, region_of = self.cmap, self.g, self.region_of
        faces_in = [[] for _ in range(n)]
        for face_index, region in enumerate(self.face_region):
            faces_in[region].append(face_index)
        interior_edges = [0] * n
        boundary_sides = [0] * n
        for d in range(cmap.dart_count):
            if d < cmap.alpha[d] and d not in g:
                interior_edges[region_of[d]] += 1
        for d in g:
            boundary_sides[region_of[d]] += 1
        interior_vertices = [0] * n
        gap_count = [0] * n
        sigma = cmap.sigma
        for cycle, germs in zip(self.vertex_cycles, self.g_at_vertex):
            if not germs:
                interior_vertices[region_of[cycle[0]]] += 1
            # one corner gap follows each subgraph germ (see gaps)
            for d in germs:
                gap_count[region_of[sigma[d]]] += 1
        cycles_by_region = self.boundary_cycles_by_region()

        out = []
        for index in range(n):
            cycles = tuple(cycles_by_region.get(index, ()))
            v_r = interior_vertices[index] + gap_count[index]
            e_r = interior_edges[index] + boundary_sides[index]
            f_r = len(faces_in[index])
            counts = tuple(len({self.owner[d] for d in cycle}) for cycle in cycles)
            out.append(
                Region(
                    faces=tuple(faces_in[index]),
                    euler=v_r - e_r + f_r,
                    boundary_cycles=cycles,
                    boundary_vertex_counts=counts,
                )
            )
        return tuple(out)

    def trial(self, curve: "CuttingCurve"):
        """The complement left by committing curve, or None if it is inessential.

        The cut is inessential when some new piece is a disk whose
        boundary is either entirely curve material (a contractible
        loop) or one run of curve material against one run of old
        boundary (the curve merely pushes off existing boundary).
        """
        accepted = self._accepted
        if accepted is not None and accepted[0] == curve:
            return accepted[1]
        new_map, new_g = add_cutting_curve(self.cmap, self.g, curve)
        after = _RegionData(new_map, new_g)
        added = new_g - self.g
        for region in after.regions:
            if not region.is_disk:
                continue
            cycle = region.boundary_cycles[0]
            labels = [d in added for d in cycle]
            if not any(labels):
                continue
            if all(labels):
                return None
            transitions = sum(
                labels[i] != labels[(i + 1) % len(labels)] for i in range(len(labels))
            )
            if transitions == 2:
                return None
        self._accepted = (curve, after)
        return after


def _keep(data: _RegionData) -> _RegionData:
    """Let lookups on data's map find data for as long as a caller holds it.

    The map holds it weakly: a strong reference would form a cycle
    (data refers to its map) that keeps both alive until the cyclic
    garbage collector runs.
    """
    data.cmap.__dict__["_complement"] = weakref.ref(data)
    return data


def _complement(cmap: CombinatorialMap, subgraph) -> _RegionData:
    """The complement of subgraph in cmap.

    The map points to the complement last built on it or kept by
    reduce, for as long as that is in use, so the calls of one
    reduction step that ask about the same subgraph share one build.
    The subgraph is validated when it is new.
    """
    g = frozenset(subgraph)
    ref = cmap.__dict__.get("_complement")
    kept = ref() if ref is not None else None
    if kept is not None and (kept.g is g or kept.g == g):
        return kept
    for d in g:
        if not isinstance(d, int) or not 0 <= d < cmap.dart_count:
            raise ValidationError(f"subgraph dart {d!r} out of range")
        if cmap.alpha[d] not in g:
            raise ValidationError(
                "subgraph is not closed under the edge involution"
            )
    return _keep(_RegionData(cmap, g))


def complement_regions(cmap: CombinatorialMap, subgraph) -> tuple:
    """Cut the surface along the subgraph and describe every piece.

    Pieces are unions of the map's faces glued across edges outside the
    subgraph.  Each Region carries its Euler characteristic (a disk iff
    it equals 1), its boundary cycles of subgraph darts, the number of
    distinct vertices on each cycle.
    """
    return _complement(cmap, subgraph).regions


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


class _Work:
    """Mutable copy of a map while a cutting curve is committed."""

    def __init__(self, cmap: CombinatorialMap, subgraph):
        self.alpha = list(cmap.alpha)
        self.sigma = list(cmap.sigma)
        self.straight = set(cmap.straight_corners)
        self.opp = list(_opposite_table(cmap))
        self.vertex = list(cmap.vertex_of_dart())
        self.nverts = len(cmap.vertices())
        self.g = set(subgraph)

    def new_dart(self, vertex: int) -> int:
        self.alpha.append(-1)
        self.sigma.append(-1)
        self.opp.append(None)
        self.vertex.append(vertex)
        return len(self.alpha) - 1

    def germs_at_vertex_of(self, d: int) -> list:
        germs = [d]
        x = self.sigma[d]
        while x != d:
            germs.append(x)
            x = self.sigma[x]
        return germs

    def g_germs_at_vertex_of(self, d: int) -> list:
        return [x for x in self.germs_at_vertex_of(d) if x in self.g]

    def subdivide(self, d: int):
        """Split the edge of d with a new vertex adjacent to v(d).

        Returns (vertex, near, far): near faces v(d), far faces the old
        far endpoint.  The strand continues straight through, and
        subgraph membership is inherited by both halves.
        """
        a = self.alpha[d]
        w = self.nverts
        self.nverts += 1
        near = self.new_dart(w)
        far = self.new_dart(w)
        self.alpha[d] = near
        self.alpha[near] = d
        self.alpha[far] = a
        self.alpha[a] = far
        self.sigma[near] = far
        self.sigma[far] = near
        self.opp[near] = far
        self.opp[far] = near
        if d in self.g:
            self.g.add(near)
            self.g.add(far)
        return w, near, far

    def to_map(self) -> CombinatorialMap:
        return CombinatorialMap(
            dart_count=len(self.alpha),
            alpha=tuple(self.alpha),
            sigma=tuple(self.sigma),
            straight_corners=frozenset(self.straight),
        )


def _clean_corner_pattern(work: _Work, germs) -> bool:
    """True for three germs containing a strand-opposite pair or four
    germs forming two strand-opposite pairs."""
    gset = set(germs)
    if len(gset) == 3:
        return any(work.opp[d] is not None and work.opp[d] in gset for d in gset)
    if len(gset) == 4:
        return all(work.opp[d] is not None and work.opp[d] in gset for d in gset)
    return False


def _deviate(work: _Work, germ: int) -> int:
    """Displace a curve end off the vertex of germ.

    The curve used to terminate along the edge of germ; it now stops
    just short of the vertex, sweeps counterclockwise across the
    intervening non-subgraph germs (crossing their edges at new
    four-valent vertices) and lands with a new three-valent vertex on
    the side of the first subgraph edge it meets.  Returns the dart
    that replaces germ as the curve's terminal germ.
    """
    crossed = []
    x = work.sigma[germ]
    while x not in work.g:
        if x == germ:
            raise InternalInvariantError("no subgraph germ to land on")
        crossed.append(x)
        x = work.sigma[x]
    landing = x

    # clip the terminal edge just short of the vertex
    _, near0, far0 = work.subdivide(germ)
    u0 = work.vertex[near0]
    f0 = work.new_dart(u0)
    work.sigma[far0] = f0
    work.sigma[f0] = near0
    # sigma[near0] still points to far0, closing the 3-cycle; the gap
    # between the two old edge halves is straight
    work.straight.add(near0)
    work.opp[f0] = None

    prev = f0
    for gamma in crossed:
        w, near, far = work.subdivide(gamma)
        fw = work.new_dart(w)
        pw = work.new_dart(w)
        work.sigma[far] = fw
        work.sigma[fw] = near
        work.sigma[near] = pw
        work.sigma[pw] = far
        work.opp[fw] = pw
        work.opp[pw] = fw
        work.alpha[prev] = pw
        work.alpha[pw] = prev
        work.g.add(prev)
        work.g.add(pw)
        prev = fw

    _, near, far = work.subdivide(landing)
    q = work.new_dart(work.vertex[near])
    work.sigma[near] = q
    work.sigma[q] = far
    # sigma[far] still points to near: the far-side corner is straight
    work.straight.add(far)
    work.opp[q] = None
    work.alpha[prev] = q
    work.alpha[q] = prev
    work.g.add(prev)
    work.g.add(q)
    return far0


def _attach_end(work: _Work, germ: int, extra_germs=()) -> int:
    """Attach a curve end terminating along germ at its vertex.

    The attachment is direct when the resulting corner pattern at the
    vertex is clean, and displaced otherwise.  Returns the curve's
    terminal germ after the operation (germ itself when direct).
    """
    prospective = work.g_germs_at_vertex_of(germ) + list(extra_germs) + [germ]
    if _clean_corner_pattern(work, prospective):
        return germ
    return _deviate(work, germ)


def add_cutting_curve(cmap: CombinatorialMap, subgraph, curve: CuttingCurve):
    """Commit a cutting curve: returns the refined map and new subgraph.

    Loop kinds only mark edges.  Arc and lasso ends are attached to the
    subgraph, displacing an end off its vertex (through new three- and
    four-valent vertices) whenever a direct attachment would spoil the
    corner pattern there.  When the commit adds no darts (loops, and
    arcs or lassos attached directly) the map is unchanged and the
    input map object itself is returned, with the tables kept on it.
    """
    work = _Work(cmap, subgraph)
    darts = list(curve.darts)
    if not darts:
        raise ValidationError("empty cutting curve")
    for d in darts:
        if not isinstance(d, int) or not 0 <= d < cmap.dart_count:
            raise ValidationError(f"cutting curve dart {d!r} out of range")
        if d in work.g or work.alpha[d] in work.g:
            raise ValidationError("cutting curve reuses subgraph material")

    if curve.kind in ("I", "II", "III", "IV"):
        if work.g:
            raise ValidationError(
                "loop cutting curves (kinds I-IV) apply only to an empty subgraph"
            )
        for d in darts:
            work.g.add(d)
            work.g.add(work.alpha[d])
    elif curve.kind == "V":
        if not work.g_germs_at_vertex_of(darts[0]):
            raise ValidationError("arc cutting curve must start on the subgraph")
        if not work.g_germs_at_vertex_of(work.alpha[darts[-1]]):
            raise ValidationError("arc cutting curve must end on the subgraph")
        darts[0] = _attach_end(work, darts[0])
        for d in darts[:-1]:
            work.g.add(d)
            work.g.add(work.alpha[d])
        arrival = work.alpha[darts[-1]]
        # a one-edge arc with both ends at one vertex attaches them at
        # once, so the start germ joins the corner pattern test there
        extra = ()
        if len(darts) == 1 and work.vertex[darts[0]] == work.vertex[arrival]:
            extra = (darts[0],)
        arrival = _attach_end(work, arrival, extra)
        work.g.add(arrival)
        work.g.add(work.alpha[arrival])
        work.g.add(darts[0])
        work.g.add(work.alpha[darts[0]])
    elif curve.kind == "VI":
        if not work.g_germs_at_vertex_of(darts[0]):
            raise ValidationError("lasso cutting curve must start on the subgraph")
        darts[0] = _attach_end(work, darts[0])
        for d in darts:
            work.g.add(d)
            work.g.add(work.alpha[d])
    else:
        raise ValidationError(f"unknown cutting curve kind {curve.kind!r}")

    if len(work.alpha) == cmap.dart_count:
        return cmap, frozenset(work.g)
    return work.to_map(), frozenset(work.g)


def is_essential(cmap: CombinatorialMap, subgraph, curve: CuttingCurve) -> bool:
    """Decide whether a cutting curve genuinely cuts its region.

    The curve is committed to a copy of the map and the new complement
    is inspected: the cut is inessential when some new piece is a disk
    whose boundary is either entirely curve material (a contractible
    loop) or one run of curve material against one run of old boundary
    (the curve merely pushes off existing boundary).  The complement of
    subgraph itself is the one kept on the map, so judging many
    candidates against one subgraph builds it once, and reduce takes
    the commit of the curve found essential instead of redoing it.
    """
    return _complement(cmap, subgraph).trial(curve) is not None


def _strand_orbit(cmap, opp, start: int) -> list:
    orbit = [start]
    d = opp[cmap.alpha[start]]
    steps = 0
    while d != start:
        if d is None:
            raise InternalInvariantError("strand walk hit a dangling end")
        orbit.append(d)
        d = opp[cmap.alpha[d]]
        steps += 1
        if steps > cmap.dart_count:
            raise InternalInvariantError("strand walk failed to close")
    return orbit


def _extract_loop(cmap, opp, owner, start: int):
    """Extract a simple closed loop from the strand through start.

    Returns (darts, kind): kind I when the whole strand is simple, II
    when the loop closes at the walk's starting vertex, III when the
    leftover strand material stays off the loop's other vertices, IV
    when it crosses them.
    """
    orbit = _strand_orbit(cmap, opp, start)
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


def _walk_arc(cmap, opp, owner, g_vertex, start: int):
    """Walk unused strand material from a germ at a subgraph vertex.

    Stops on reaching another subgraph vertex (a simple arc, kind V) or
    on revisiting an interior vertex (a lasso, kind VI).
    """
    darts = [start]
    visited = set()
    steps = 0
    while True:
        arrival = cmap.alpha[darts[-1]]
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
        if steps > cmap.dart_count:
            raise InternalInvariantError("arc walk failed to terminate")


def find_cutting_curve(cmap: CombinatorialMap, subgraph) -> CuttingCurve:
    """Find the next essential cutting curve for the subgraph.

    Calling this with a subgraph whose complement is already all disks
    is a precondition violation (DomainError).  Candidates are tried
    deterministically, lowest dart first.  For an empty subgraph the
    candidates are simple loops extracted from the strands (kinds I to
    IV); afterwards they are arcs and lassos grown from boundary germs
    of non-disk regions (kinds V and VI).  Exhausting all candidates,
    or finding only inessential ones, contradicts the validated filling
    input and raises InternalInvariantError.
    """
    data = _complement(cmap, subgraph)
    if data.fills:
        raise DomainError(
            "the subgraph already fills: every complementary region is a disk"
        )
    nondisk = {i for i, r in enumerate(data.regions) if not r.is_disk}
    opp = _opposite_table(cmap)
    owner = data.owner
    g_vertex = [bool(germs) for germs in data.g_at_vertex]

    tried = 0

    def essential(darts, kind):
        curve = CuttingCurve(darts=darts, kind=kind)
        return curve if is_essential(cmap, data.g, curve) else None

    if not data.g:
        for d in range(cmap.dart_count):
            tried += 1
            darts, kind = _extract_loop(cmap, opp, owner, d)
            curve = essential(darts, kind)
            if curve is not None:
                return curve
    else:
        germ_candidates = []
        for _, d, nxt, region in data.gaps():
            if region not in nondisk:
                continue
            x = cmap.sigma[d]
            while x != nxt:
                germ_candidates.append(x)
                x = cmap.sigma[x]
        for x in sorted(germ_candidates):
            walk = _walk_arc(cmap, opp, owner, g_vertex, x)
            if walk[0] is None:
                continue
            tried += 1
            curve = essential(*walk)
            if curve is not None:
                return curve

    if tried:
        raise InternalInvariantError(
            "every candidate cutting curve is inessential although a non-disk "
            "complementary region remains"
        )
    raise InternalInvariantError(
        "a non-disk complementary region admits no cutting curve; the input "
        "appears to contain parallel homotopic components"
    )


def _face_degree_census(data: _RegionData) -> list:
    """Effective degree of every complementary region of the subgraph.

    Counts, per region, the corner gaps between consecutive subgraph
    germs at vertices of subgraph valence at least three, discounting
    straight corners (gaps between strand-opposite germs).  Vertices of
    subgraph valence two are interior points of subgraph edges and
    contribute nothing.
    """
    opp = _opposite_table(data.cmap)
    degrees = [0] * len(data.regions)
    for v, d, nxt, region in data.gaps():
        if len(data.g_at_vertex[v]) < 3:
            continue
        if opp[d] != nxt:
            degrees[region] += 1
    return degrees


def _smoothed_subgraph_map(data: _RegionData) -> CombinatorialMap:
    """The subgraph as a standalone map, two-valent vertices smoothed.

    Vertices of subgraph valence two become interior points of edges.
    Three-valent vertices keep a straight corner mark so face tracing
    of the result discounts the corner between the two edge germs that
    continue each other.
    """
    cmap, g, owner, g_at = data.cmap, data.g, data.owner, data.g_at_vertex
    opp = _opposite_table(cmap)
    real = sorted(d for d in g if len(g_at[owner[d]]) >= 3)
    if not real:
        raise InternalInvariantError(
            "subgraph has no vertices of valence three or more"
        )
    index = {d: i for i, d in enumerate(real)}

    alpha_out = [None] * len(real)
    consumed = set()
    for d in real:
        e = cmap.alpha[d]
        hops = 0
        while len(g_at[owner[e]]) == 2:
            consumed.add(e)
            pair = g_at[owner[e]]
            other = pair[0] if pair[1] == e else pair[1]
            consumed.add(other)
            e = cmap.alpha[other]
            hops += 1
            if hops > cmap.dart_count:
                raise InternalInvariantError("edge smoothing failed to terminate")
        alpha_out[index[d]] = index[e]
    for d in g:
        if len(g_at[owner[d]]) == 2 and d not in consumed:
            raise InternalInvariantError(
                "subgraph contains a vertex-free circle component"
            )

    sigma_out = [None] * len(real)
    straight_out = set()
    for d in real:
        x = cmap.sigma[d]
        while x not in g:
            x = cmap.sigma[x]
        sigma_out[index[d]] = index[x]
        if opp[d] == x:
            straight_out.add(index[d])

    return CombinatorialMap(
        dart_count=len(real),
        alpha=tuple(alpha_out),
        sigma=tuple(sigma_out),
        straight_corners=frozenset(straight_out),
    )


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
        return {
            "genus": self.genus,
            "passed": self.passed,
            "filling": self.filling,
            "min_degree_ok": self.min_degree_ok,
            "degree_sum_ok": self.degree_sum_ok,
            "face_degrees": list(self.face_degrees),
            "k": self.k,
            "subgraph_darts": list(self.subgraph_darts),
            "input_dart_count": self.input_dart_count,
            "ambient_map": self.ambient_map,
            "reduced_map": self.reduced_map,
            "steps": list(self.steps),
            "iterations": self.iterations,
        }

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
    state = _complement(filling.cmap, frozenset())
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
            curve = find_cutting_curve(state.cmap, state.g)
        except InternalInvariantError as err:
            abort(str(err))
        # the trial that proved the curve essential, kept by the search
        state = _keep(state.trial(curve))
        iterations += 1
        steps.append(
            f"step {iterations}: kind {curve.kind} cutting curve, darts "
            f"{list(curve.darts)}, essential"
        )

    cmap, subgraph = state.cmap, state.g
    if cmap.dart_count > input_dart_count and all(
        len(cycle) == 4 for cycle in filling.cmap.vertices()
    ):
        # an input with only double points should embed its subgraph
        # directly; a fired split rule here is a counterexample worth
        # surfacing, not something to hide
        abort("the attachment split rule fired on an input with only double points")

    degrees = _face_degree_census(state)
    face_degrees = tuple(sorted(degrees, reverse=True))
    k = len(face_degrees)
    min_degree_ok = all(m >= 5 for m in face_degrees)
    degree_sum_ok = sum(m - 4 for m in face_degrees) == 8 * genus - 8
    reduced = _smoothed_subgraph_map(state)
    passed = min_degree_ok and degree_sum_ok
    return ReductionCertificate(
        genus=genus,
        passed=passed,
        filling=True,
        min_degree_ok=min_degree_ok,
        degree_sum_ok=degree_sum_ok,
        face_degrees=face_degrees,
        k=k,
        subgraph_darts=tuple(sorted(subgraph)),
        input_dart_count=input_dart_count,
        ambient_map=to_interchange(cmap),
        reduced_map=to_interchange(reduced),
        steps=tuple(steps),
        iterations=iterations,
    )
