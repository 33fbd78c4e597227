"""Polygon gluings, combinatorial maps and the canonical filling curve.

A gluing word lists the sides of a hyperbolic polygon in boundary
order; each label appears exactly twice and a trailing apostrophe
marks a reversed identification.  Gluing the sides in pairs yields a
closed surface, and the glued side arcs form a graph embedded in it
whose vertices are the corner classes.  This module builds that
embedded graph as a combinatorial map (darts with an edge involution
alpha and a vertex rotation sigma), reports the surface invariants,
traces the curve obtained by running straight through every vertex,
and constructs the canonical gluing that realizes a shortest filling
geodesic in every genus.

Faces are traced with the convention next(d) = sigma(alpha(d)).
"""

import math
from dataclasses import dataclass

from . import tolerances as tol
from .errors import DomainError, InternalInvariantError, ValidationError
from .polygeom import _check_genus, circumradius, min_filling_length, side_length
from .report import CheckReport


def parse_gluing_word(word):
    """Split a gluing word into (label, reversed) side descriptors.

    Accepts a whitespace-separated string or a sequence of tokens.
    A token is a label, optionally followed by a single trailing
    apostrophe.  Each label must appear exactly twice.
    """
    if isinstance(word, str):
        tokens = word.split()
    else:
        tokens = [str(t) for t in word]
    if not tokens:
        raise ValidationError("gluing word is empty")
    sides = []
    for token in tokens:
        if token.endswith("'"):
            label, primed = token[:-1], True
        else:
            label, primed = token, False
        if not label or "'" in label:
            raise ValidationError(f"malformed side token {token!r}")
        sides.append((label, primed))
    counts = {}
    for label, _ in sides:
        counts[label] = counts.get(label, 0) + 1
    bad = sorted(label for label, c in counts.items() if c != 2)
    if bad:
        raise ValidationError(
            f"each label must appear exactly twice, violated by: {', '.join(bad)}"
        )
    return tuple(sides)


@dataclass(frozen=True)
class CombinatorialMap:
    """Graph embedded in a surface, encoded by darts.

    alpha swaps the two darts of each edge; sigma sends a dart to the
    next dart around its vertex.  straight_corners lists darts d for
    which the corner between d and sigma(d) is straight (the two edge
    germs continue each other instead of meeting transversally).
    orientable is False when the gluing identified some side pair
    without reversal; face tracing then does not apply, and the map
    has the one face of its polygon.

    The map is frozen, so every per-dart table derived from it (the
    orbits, the vertex and face of each dart, the strand continuation)
    is computed here once, on first use, and kept in the instance
    __dict__ as an immutable tuple, outside equality and hashing.
    Every caller gets that same object: copy it before mutating.
    """

    dart_count: int
    alpha: tuple
    sigma: tuple
    straight_corners: frozenset = frozenset()
    orientable: bool = True
    dart_names: tuple | None = None

    def __post_init__(self):
        n = self.dart_count
        if n < 2:
            raise ValidationError("a map needs at least two darts")
        for name, perm in (("alpha", self.alpha), ("sigma", self.sigma)):
            if len(perm) != n or sorted(perm) != list(range(n)):
                raise ValidationError(f"{name} is not a permutation of 0..{n - 1}")
        for d in range(n):
            if self.alpha[d] == d:
                raise ValidationError(f"alpha fixes dart {d}: edges need two darts")
            if self.alpha[self.alpha[d]] != d:
                raise ValidationError("alpha is not an involution")
        for d in self.straight_corners:
            if not 0 <= d < n:
                raise ValidationError(f"straight corner dart {d} out of range")
        if self.dart_names is not None and len(self.dart_names) != n:
            raise ValidationError("dart_names length mismatch")

    def orbits(self, perm) -> tuple:
        seen = [False] * self.dart_count
        cycles = []
        for start in range(self.dart_count):
            if seen[start]:
                continue
            cycle = []
            d = start
            while not seen[d]:
                seen[d] = True
                cycle.append(d)
                d = perm[d]
            cycles.append(tuple(cycle))
        return tuple(cycles)

    def _derived(self, key: str, compute):
        """The table compute(self), computed on first use and kept under key."""
        table = self.__dict__.get(key)
        if table is None:
            table = self.__dict__[key] = compute(self)
        return table

    def vertices(self) -> tuple:
        return self._derived("_vertices", lambda m: m.orbits(m.sigma))

    def edges(self) -> tuple:
        return self._derived("_edges", lambda m: m.orbits(m.alpha))

    def faces(self) -> tuple:
        return self._derived(
            "_faces",
            lambda m: m.orbits([m.sigma[m.alpha[d]] for d in range(m.dart_count)]),
        )

    def vertex_of_dart(self) -> tuple:
        """The index (in vertices()) of the vertex of each dart."""
        return self._derived("_vertex_of_dart", lambda m: _orbit_index(m, m.vertices()))

    def face_of_dart(self) -> tuple:
        """The index (in faces()) of the face on the left of each dart."""
        return self._derived("_face_of_dart", lambda m: _orbit_index(m, m.faces()))

    def strand_opposites(self) -> tuple:
        """Strand continuation at every vertex: the germ opposite each dart.

        Even-valence vertices pair germs half a rotation apart.  A
        three-valent vertex must carry exactly one straight corner, which
        names the two germs that continue each other; the remaining germ
        is a strand endpoint (opposite None).  Other valences raise
        ValidationError.
        """
        return self._derived("_strand_opposites", _strand_opposites)

    def is_connected(self) -> bool:
        n = self.dart_count
        seen = [False] * n
        stack = [0]
        seen[0] = True
        while stack:
            d = stack.pop()
            for e in (self.alpha[d], self.sigma[d]):
                if not seen[e]:
                    seen[e] = True
                    stack.append(e)
        return all(seen)

    def name(self, d: int) -> str:
        if self.dart_names is not None:
            return self.dart_names[d]
        return str(d)


def _orbit_index(cmap: CombinatorialMap, cycles: tuple) -> tuple:
    index_of = [0] * cmap.dart_count
    for index, cycle in enumerate(cycles):
        for d in cycle:
            index_of[d] = index
    return tuple(index_of)


def _strand_opposites(cmap: CombinatorialMap) -> tuple:
    opp = [None] * cmap.dart_count
    for cycle in cmap.vertices():
        pair_strands(cycle, cmap.sigma, cmap.straight_corners, opp)
    return tuple(opp)


def pair_strands(cycle, sigma, straight, opp) -> None:
    """Write the strand rule of one vertex, with rotation cycle, into opp.

    The rule is the one CombinatorialMap.strand_opposites describes;
    straight is the set of straight-corner darts.
    """
    val = len(cycle)
    if val % 2 == 0:
        half = val // 2
        for i, d in enumerate(cycle):
            opp[d] = cycle[(i + half) % val]
    elif val == 3:
        marked = [d for d in cycle if d in straight]
        if len(marked) != 1:
            raise ValidationError(
                "a 3-valent vertex needs exactly one straight corner"
            )
        d = marked[0]
        opp[d] = sigma[d]
        opp[sigma[d]] = d
    else:
        raise ValidationError(f"unsupported vertex valence {val}")


def build_map(word) -> CombinatorialMap:
    """Glue the polygon sides described by a gluing word.

    Side k runs from corner k to corner k+1; each side has a ray at
    either end.  Identified sides match their rays in parallel when
    both occurrences are unreversed or both reversed, antiparallel
    otherwise.  Rays merge in pairs into darts, corners merge into
    vertices, and walking corner fans yields the vertex rotations.
    """
    sides = parse_gluing_word(word)
    n = len(sides)

    positions = {}
    for index, (label, _) in enumerate(sides):
        positions.setdefault(label, []).append(index)

    # rays: ray 2k is the start of side k, ray 2k+1 its end
    pair_ray = [None] * (2 * n)
    labels_in_order = []
    for label, (i, j) in sorted(positions.items(), key=lambda kv: kv[1][0]):
        labels_in_order.append(label)
        parallel = sides[i][1] == sides[j][1]
        if parallel:
            links = ((2 * i, 2 * j), (2 * i + 1, 2 * j + 1))
        else:
            links = ((2 * i, 2 * j + 1), (2 * i + 1, 2 * j))
        for r, s in links:
            pair_ray[r] = s
            pair_ray[s] = r

    # darts: the two ray classes of each identified side pair
    dart_of_ray = [None] * (2 * n)
    dart_names = []
    alpha = []
    for label in labels_in_order:
        i = positions[label][0]
        for end, suffix in ((0, "+"), (1, "-")):
            d = len(dart_names)
            ray = 2 * i + end
            dart_of_ray[ray] = d
            dart_of_ray[pair_ray[ray]] = d
            dart_names.append(label + suffix)
        alpha.extend([len(dart_names) - 1, len(dart_names) - 2])

    # corner k sits between side k-1 and side k
    in_ray = [2 * ((k - 1) % n) + 1 for k in range(n)]
    out_ray = [2 * k for k in range(n)]
    corner_of_ray = {}
    for k in range(n):
        corner_of_ray[in_ray[k]] = (k, "in")
        corner_of_ray[out_ray[k]] = (k, "out")

    dart_count = n
    sigma = [None] * dart_count
    visited = [False] * n
    orientable = True
    for start in range(n):
        if visited[start]:
            continue
        cycle = []
        corner, entry = start, "in"
        while True:
            if visited[corner]:
                raise InternalInvariantError(
                    f"corner {corner} visited twice while walking a vertex fan"
                )
            visited[corner] = True
            if entry != "in":
                orientable = False
            exit_ray = out_ray[corner] if entry == "in" else in_ray[corner]
            cycle.append(dart_of_ray[exit_ray])
            corner, entry = corner_of_ray[pair_ray[exit_ray]]
            if (corner, entry) == (start, "in"):
                break
        for t, d in enumerate(cycle):
            if sigma[d] is not None:
                raise InternalInvariantError(f"dart {d} appears in two vertex fans")
            sigma[d] = cycle[(t + 1) % len(cycle)]

    cmap = CombinatorialMap(
        dart_count=dart_count,
        alpha=tuple(alpha),
        sigma=tuple(sigma),
        straight_corners=frozenset(),
        orientable=orientable,
        dart_names=tuple(dart_names),
    )
    if orientable and len(cmap.faces()) != 1:
        raise InternalInvariantError(
            "orientable polygon gluing must trace back to a single face"
        )
    return cmap


def canonical_word(g: int) -> list:
    """Gluing word of the canonical shortest filling geodesic in genus g.

    The (8g-4)-gon with all right angles, sides identified by this
    word, is a closed genus-g surface in which the glued boundary
    becomes a single closed geodesic with 2g-1 double points.  Labels
    a1..a6 form the core block; each extra genus adds a four-label
    block.  The second occurrence of every label is reversed, which is
    the unique orientable choice.
    """
    _check_genus(g)
    tokens = ["a6", "a3", "a1", "a4", "a6"]
    for j in range(1, g - 1):
        p = f"b{j}_"
        tokens += [p + "3", p + "1", p + "2", p + "3", p + "1", p + "4"]
    tokens += ["a3", "a5", "a1", "a2", "a5", "a4", "a2"]
    for j in range(g - 2, 0, -1):
        p = f"b{j}_"
        tokens += [p + "4", p + "2"]
    seen = set()
    out = []
    for token in tokens:
        if token in seen:
            out.append(token + "'")
        else:
            seen.add(token)
            out.append(token)
    if len(out) != 8 * g - 4:
        raise InternalInvariantError("canonical word has the wrong length")
    return out


def trace_curve(cmap: CombinatorialMap) -> dict:
    """Follow strands straight through every vertex.

    At a vertex of valence 2d the strand arriving along a dart leaves
    through the dart d rotation steps further on.  Returns the number
    of closed strand components and the total crossing count
    sum over vertices of C(valence/2, 2).  Odd valence is an error.
    """
    valence = [len(c) for c in cmap.vertices()]
    for v, val in enumerate(valence):
        if val % 2 != 0:
            raise ValidationError(
                f"vertex {v} has odd valence {val}: strands cannot pass through"
            )
    alpha, opp = cmap.alpha, cmap.strand_opposites()
    orbits = cmap.orbits([opp[alpha[d]] for d in range(cmap.dart_count)])
    orbit_id = _orbit_index(cmap, orbits)

    # a strand traversed backwards visits the alpha images, so orbits
    # pair off under alpha; a self-paired orbit is a single strand
    components = 0
    seen = set()
    for index, members in enumerate(orbits):
        if index in seen:
            continue
        partner = orbit_id[alpha[members[0]]]
        seen.add(index)
        seen.add(partner)
        components += 1

    self_intersections = sum(
        (val // 2) * (val // 2 - 1) // 2 for val in valence
    )
    return {"components": components, "self_intersections": self_intersections}


def surface_report(cmap: CombinatorialMap) -> dict:
    """Invariants of the closed surface carrying the map.

    Euler characteristic, genus (crosscap count when non-orientable),
    face degrees with straight corners discounted, and the strand
    census from trace_curve.  Disconnected maps are rejected.
    """
    if not cmap.is_connected():
        raise ValidationError("map is disconnected: not a single closed surface")
    v = len(cmap.vertices())
    e = len(cmap.edges())
    if not cmap.orientable:
        # the single polygon face runs through every dart once
        f = 1
        effective = [cmap.dart_count]
    else:
        faces = cmap.faces()
        f = len(faces)
        effective = sorted(
            (
                sum(1 for d in cycle if cmap.alpha[d] not in cmap.straight_corners)
                for cycle in faces
            ),
            reverse=True,
        )
    euler = v - e + f
    if cmap.orientable:
        if (2 - euler) % 2 != 0:
            raise InternalInvariantError("orientable surface with odd characteristic")
        genus = (2 - euler) // 2
    else:
        genus = 2 - euler
    try:
        curve = trace_curve(cmap)
    except ValidationError:
        # odd-valence vertices carry no strand structure; the surface
        # invariants above still stand
        curve = {"components": None, "self_intersections": None}
    return {
        "vertices": v,
        "edges": e,
        "faces": f,
        "euler": euler,
        "genus": genus,
        "orientable": cmap.orientable,
        "vertex_valences": sorted((len(c) for c in cmap.vertices()), reverse=True),
        "face_effective_degrees": effective,
        "curve_components": curve["components"],
        "self_intersections": curve["self_intersections"],
    }


def canonical_report(cmap: CombinatorialMap, g: int) -> CheckReport:
    """Check a map against everything the canonical genus-g gluing is.

    Checks: 2g-1 vertices all of valence four, orientable genus-g
    surface with a single face of effective degree 8g-4, a single
    strand component with 2g-1 crossings, and total strand length of
    the (8g-4)-gon's sides equal to the genus-g minimum.
    """
    report = surface_report(cmap)

    n_sides = 8 * g - 4
    length = (4 * g - 2) * side_length(n_sides, math.pi / 2.0)
    target_length = min_filling_length(g)
    rel = abs(length - target_length) / target_length

    checks = {
        "vertex_count": report["vertices"] == 2 * g - 1,
        "all_four_valent": report["vertex_valences"] == [4] * (2 * g - 1),
        "edge_count": report["edges"] == 4 * g - 2,
        "orientable": report["orientable"],
        "genus": report["genus"] == g,
        "single_face": report["faces"] == 1,
        "face_effective_degree": report["face_effective_degrees"] == [n_sides],
        "single_component": report["curve_components"] == 1,
        "self_intersections": report["self_intersections"] == 2 * g - 1,
        "geodesic_length": rel <= tol.LENGTH_REL_TOL,
    }
    details = dict(report)
    details.pop("vertex_valences")
    details.update(
        {
            "geodesic_length": length,
            "expected_length": target_length,
            "length_rel_error": rel,
            "failed_checks": sorted(k for k, ok in checks.items() if not ok),
        }
    )
    return CheckReport(
        check_id=f"canonical_g{g}",
        passed=all(checks.values()),
        domain=f"canonical gluing word, genus {g}, {n_sides} sides",
        grid_size=n_sides,
        min_value=None,
        argmin=None,
        tolerance=tol.LENGTH_REL_TOL,
        details=details,
    )


def verify_canonical(g: int) -> CheckReport:
    """Build the canonical genus-g gluing and check it (canonical_report)."""
    return canonical_report(build_map(canonical_word(g)), g)


def to_interchange(cmap: CombinatorialMap) -> dict:
    """Serializable form: dart count, permutations, straight corners."""
    return {
        "dart_count": cmap.dart_count,
        "alpha": list(cmap.alpha),
        "sigma": list(cmap.sigma),
        "straight_corners": sorted(cmap.straight_corners),
    }


def from_interchange(data: dict) -> CombinatorialMap:
    """Rebuild a map from its serialized form.

    The serialized form is a rotation system, so the result is always
    treated as orientably embedded.
    """
    try:
        dart_count = int(data["dart_count"])
        alpha = tuple(int(x) for x in data["alpha"])
        sigma = tuple(int(x) for x in data["sigma"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed map data: {exc}") from exc
    straight = frozenset(int(x) for x in data.get("straight_corners", ()))
    return CombinatorialMap(
        dart_count=dart_count,
        alpha=alpha,
        sigma=sigma,
        straight_corners=straight,
    )


def disk_distance(p, q) -> float:
    """Hyperbolic distance between two points of the unit disk."""
    px, py = p
    qx, qy = q
    dp = 1.0 - (px * px + py * py)
    dq = 1.0 - (qx * qx + qy * qy)
    if dp <= 0.0 or dq <= 0.0:
        raise DomainError("points must lie inside the unit disk")
    d2 = (px - qx) ** 2 + (py - qy) ** 2
    return math.acosh(1.0 + 2.0 * d2 / (dp * dq))


def polygon_vertices(n, theta: float) -> list:
    """Corners of the regular n-gon with angle theta, in the unit disk.

    The polygon is centered at the origin with its circumradius
    realized on the Euclidean radius tanh(R/2); a degenerate polygon
    collapses every corner to the origin.
    """
    if isinstance(n, bool) or n != int(n) or int(n) < 3:
        raise DomainError(f"side count must be an integer >= 3, got {n!r}")
    n = int(n)
    radius = math.tanh(circumradius(n, theta) / 2.0)
    points = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        points.append((radius * math.cos(angle), radius * math.sin(angle)))
    return points


def _geodesic_points(z1: complex, z2: complex) -> list:
    """Sample the hyperbolic segment between two disk points at 25 points."""
    w = (z2 - z1) / (1.0 - z1.conjugate() * z2)
    points = []
    for t in range(25):
        u = w * (t / 24)
        z = (u + z1) / (1.0 + z1.conjugate() * u)
        points.append(z)
    return points


def gluing_svg(word) -> str:
    """Draw a gluing word's right-angled polygon: disk, geodesic sides,
    side labels.  A four-sided word draws the degenerate square as a
    point at the origin."""
    sides = parse_gluing_word(word)
    n = len(sides)
    corners = polygon_vertices(n, math.pi / 2.0)
    zs = [complex(x, y) for x, y in corners]
    degenerate = all(abs(z) < tol.SVG_POINT_TOL for z in zs)

    font = max(0.018, min(0.06, 2.5 / n))
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.25 -1.25 2.5 2.5" '
        'width="720" height="720">',
        '<rect x="-1.25" y="-1.25" width="2.5" height="2.5" fill="white"/>',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#bbbbbb" '
        'stroke-width="0.004"/>',
    ]
    if degenerate:
        parts.append('<circle cx="0" cy="0" r="0.01" fill="#cc3333"/>')
    else:
        for k in range(n):
            z1, z2 = zs[k], zs[(k + 1) % n]
            pts = _geodesic_points(z1, z2)
            coords = " ".join(f"{z.real:.5f},{-z.imag:.5f}" for z in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="#224488" '
                'stroke-width="0.006"/>'
            )
        for k, (label, primed) in enumerate(sides):
            phi = 2.0 * math.pi * (k + 0.5) / n
            lx = 1.09 * math.cos(phi)
            ly = -1.09 * math.sin(phi)
            text = label + ("'" if primed else "")
            parts.append(
                f'<text x="{lx:.5f}" y="{ly:.5f}" font-size="{font:.4f}" '
                'text-anchor="middle" dominant-baseline="middle" '
                f'fill="#333333">{text}</text>'
            )
        for z in zs:
            parts.append(
                f'<circle cx="{z.real:.5f}" cy="{-z.imag:.5f}" r="0.008" '
                'fill="#cc3333"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
