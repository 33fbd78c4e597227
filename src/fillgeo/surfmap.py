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
from collections import namedtuple
from operator import ne

from . import tolerances as tol
from .errors import DomainError, InternalInvariantError, ValidationError
from .polygeom import _check_genus, circumradius, min_filling_length, side_length
from .report import CheckReport


def _tokens(word) -> list:
    """A gluing word's tokens: a string split at whitespace, else each item's str."""
    return word.split() if isinstance(word, str) else [str(t) for t in word]


class CombinatorialMap(namedtuple(
    "CombinatorialMap", "dart_count alpha sigma straight_corners", defaults=(frozenset(),)
)):
    """Graph embedded in a closed surface, encoded by darts: a rotation system.

    alpha swaps the two darts of each edge; sigma sends a dart to the
    next dart around its vertex.  straight_corners lists darts d for
    which the corner between d and sigma(d) is straight (the two edge
    germs continue each other instead of meeting transversally).

    The map is a named tuple, so it compares and hashes by its four
    fields and assigning one raises AttributeError.  Every per-dart
    table derived from it (the orbits, the vertex and face of each
    dart, the strand continuation) is computed once, on first use, and
    kept in the instance __dict__ as an immutable tuple, outside
    equality and hashing.  Every caller gets that same object: copy it
    before mutating.

    __init__ checks the tables, for maps from outside such as
    from_interchange's: alpha and sigma are tuples and the straight
    corners a frozenset, every entry is an int, alpha and sigma permute
    the darts, alpha fixes none and is an involution, and the straight
    corners are darts.  _trusted and _make skip the checks, for the
    makers that build their tables valid (build_map and the reducer's
    maps).
    """

    def __init__(self, *fields, **named):
        # __new__ has set the fields from the same arguments
        n, alpha, sigma, straight = self
        if not (isinstance(alpha, tuple) and isinstance(sigma, tuple)
                and isinstance(straight, frozenset)):
            raise ValidationError("alpha and sigma must be tuples, straight_corners a frozenset")
        for x in (n, *alpha, *sigma, *straight):
            if type(x) is not int:
                raise ValidationError(f"malformed map data: {x!r} is not an integer")
        if n < 2:
            raise ValidationError("a map needs at least two darts")
        for name, perm in (("alpha", alpha), ("sigma", sigma)):
            if len(perm) != n or any(map(ne, sorted(perm), range(n))):
                raise ValidationError(f"{name} is not a permutation of 0..{n - 1}")
        for d in range(n):
            if alpha[d] == d:
                raise ValidationError(f"alpha fixes dart {d}: edges need two darts")
            if alpha[alpha[d]] != d:
                raise ValidationError("alpha is not an involution")
        for d in straight:
            if not 0 <= d < n:
                raise ValidationError(f"straight corner dart {d} out of range")

    @classmethod
    def _trusted(cls, dart_count, alpha, sigma, straight_corners=frozenset()):
        """The map of valid tables, made without the constructor's checks."""
        return tuple.__new__(cls, (dart_count, alpha, sigma, straight_corners))

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

    def faces(self) -> tuple:
        return self._derived(
            "_faces",
            lambda m: m.orbits(list(map(m.sigma.__getitem__, m.alpha))),
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

    The word is a whitespace-separated string or a sequence of tokens.
    A token is a label, with one trailing apostrophe if the side is
    reversed; each label must appear exactly twice, once reversed and
    once not.  The tokens are checked in the per-side pass below, the
    only reading of the word.  A pair whose sides are both unreversed
    or both reversed would be glued in parallel, which makes the
    surface non-orientable: such a word is refused, after the refusals
    of an empty word, a malformed token and a miscounted label.

    Side k runs from corner k to corner k+1, and identified sides are
    glued antiparallel.  The e-th label in order of first occurrence is
    edge e, with darts 2e and 2e + 1; corners merge into vertices, and
    sigma(start dart of side k) = start dart of side partner(k) + 1.
    """
    tokens = _tokens(word)
    n = len(tokens)
    if not n:
        raise ValidationError("gluing word is empty")

    # per side: its partner and the dart at its start.  A side starts
    # on dart 2e at its label's first occurrence and on 2e + 1 at the
    # second, where the partner's end is glued to it.  A miscounted
    # label leaves a side unpaired.
    partner = [None] * n
    start_dart = [0] * n
    first, parallel = {}, []
    for k, token in enumerate(tokens):
        label = token[:-1] if token.endswith("'") else token
        if not label or "'" in label:
            raise ValidationError(f"malformed side token {token!r}")
        i = first.setdefault(label, k)
        if i == k:
            start_dart[k] = 2 * (len(first) - 1)
        elif partner[i] is None:
            partner[i], partner[k] = k, i
            start_dart[k] = start_dart[i] ^ 1
            # one label: the tokens are equal when the pair is parallel
            if token == tokens[i]:
                parallel.append(label)
    if None in partner:
        bad = sorted({tokens[k].rstrip("'") for k in range(n) if partner[k] is None})
        raise ValidationError(
            f"each label must appear exactly twice, violated by: {', '.join(bad)}"
        )
    if parallel:
        raise ValidationError(
            "a parallel side pair makes the surface non-orientable: each label "
            f"must appear once reversed, violated by: {', '.join(sorted(parallel))}"
        )

    # corner k sits between the end of side k-1 and the start of side
    # k; the start of side k is glued to the end of its partner j, so
    # its vertex turns on to the start of side j + 1.  The start darts
    # cover every dart once: sigma is a permutation
    after = start_dart[1:] + start_dart[:1]
    sigma = [None] * n
    for d, j in zip(start_dart, partner):
        sigma[d] = after[j]
    cmap = CombinatorialMap._trusted(
        dart_count=n,
        alpha=tuple([d ^ 1 for d in range(n)]),
        sigma=tuple(sigma),
    )
    if len(cmap.faces()) != 1:
        raise InternalInvariantError("polygon gluing must trace back to a single face")
    return cmap


def canonical_word(g: int) -> list:
    """Gluing word of the canonical shortest filling geodesic in genus g.

    The (8g-4)-gon with all right angles, sides identified by this
    word, is a closed genus-g surface in which the glued boundary
    becomes a single closed geodesic with 2g-1 double points.  Labels
    a1..a6 form the core block; each extra genus adds a four-label
    block.  The second occurrence of every label is reversed, so every
    pair is glued antiparallel, as build_map requires.
    """
    _check_genus(g)
    tokens = ["a6", "a3", "a1", "a4", "a6'"]
    for j in range(1, g - 1):
        p = f"b{j}_"
        tokens += [p + "3", p + "1", p + "2", p + "3'", p + "1'", p + "4"]
    tokens += ["a3'", "a5", "a1'", "a2", "a5'", "a4'", "a2'"]
    for j in range(g - 2, 0, -1):
        p = f"b{j}_"
        tokens += [p + "4'", p + "2'"]
    return tokens


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
    orbits = cmap.orbits(list(map(opp.__getitem__, alpha)))
    orbit_id = _orbit_index(cmap, orbits)

    # a strand traversed backwards visits the alpha images, so orbits
    # pair off under alpha: count each pair at its lower index, and a
    # self-paired orbit once
    components = sum(
        orbit_id[alpha[members[0]]] >= index for index, members in enumerate(orbits)
    )

    self_intersections = sum(
        (val // 2) * (val // 2 - 1) // 2 for val in valence
    )
    return {"components": components, "self_intersections": self_intersections}


def surface_report(cmap: CombinatorialMap) -> dict:
    """Invariants of the closed surface carrying the map.

    Euler characteristic, genus, face degrees with straight corners
    discounted, and the strand census from trace_curve.  Disconnected
    maps are rejected; each component has faces of its own, so one
    face means one component.
    """
    faces = cmap.faces()
    if len(faces) != 1 and not cmap.is_connected():
        raise ValidationError("map is disconnected: not a single closed surface")
    v = len(cmap.vertices())
    # alpha is a fixed-point-free involution: one edge per two darts
    e = cmap.dart_count // 2
    f = len(faces)
    alpha, straight = cmap.alpha, cmap.straight_corners
    effective = sorted(
        (sum(1 for d in cycle if alpha[d] not in straight) for cycle in faces),
        reverse=True,
    )
    euler = v - e + f
    if (2 - euler) % 2 != 0:
        raise InternalInvariantError("rotation system with odd characteristic")
    genus = (2 - euler) // 2
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
        # every map is a rotation system; the key stays because
        # gluing --json prints it in the canonical_g* details
        "orientable": True,
        "vertex_valences": sorted(map(len, cmap.vertices()), reverse=True),
        "face_effective_degrees": effective,
        "curve_components": curve["components"],
        "self_intersections": curve["self_intersections"],
    }


def canonical_report(cmap: CombinatorialMap, g: int) -> CheckReport:
    """Check a map against everything the canonical genus-g gluing is.

    Checks: 2g-1 vertices all of valence four, a genus-g surface with
    a single face of effective degree 8g-4, a single strand component
    with 2g-1 crossings, and total strand length of the (8g-4)-gon's
    sides equal to the genus-g minimum.
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
    """Rebuild a map from its serialized form, checked by the constructor.

    The data is a dict; alpha, sigma and the optional straight_corners
    are lists, and other keys are ignored.  Every number must be a JSON
    integer: a float, a string or a boolean is refused, not converted.
    The straight corners are checked as the list they are, integers
    without repeats, before they become a set, so no entry merges into
    another; the constructor then checks that each is a dart.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"malformed map data: a {type(data).__name__}, not an object")
    try:
        dart_count, alpha, sigma = data["dart_count"], data["alpha"], data["sigma"]
    except KeyError as exc:
        raise ValidationError(f"malformed map data: no {exc}") from None
    straight = data.get("straight_corners", [])
    for name, table in (("alpha", alpha), ("sigma", sigma), ("straight_corners", straight)):
        if not isinstance(table, list):
            raise ValidationError(f"malformed map data: {name} is a {type(table).__name__}, not a list")
    for d in straight:
        if type(d) is not int:
            raise ValidationError(f"malformed map data: {d!r} is not an integer")
    corners = frozenset(straight)
    if len(corners) != len(straight):
        raise ValidationError("malformed map data: a straight corner is listed twice")
    return CombinatorialMap(dart_count, tuple(alpha), tuple(sigma), corners)


def polygon_vertices(n, theta: float) -> list:
    """Corners of the regular n-gon with angle theta, in the unit disk.

    The polygon is centered at the origin with its circumradius
    realized on the Euclidean radius tanh(R/2); a degenerate polygon
    collapses every corner to the origin.
    """
    number = isinstance(n, (int, float)) and not isinstance(n, bool)
    if not number or not 3 <= n < math.inf or n != int(n):
        raise DomainError(f"side count must be an integer >= 3, got {n!r}")
    n = int(n)
    radius = math.tanh(circumradius(n, theta) / 2.0)
    points = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        points.append((radius * math.cos(angle), radius * math.sin(angle)))
    return points


# the 25 sample fractions along a side, and the SVG lines drawn from
# them, each ending in its newline; %-formatting gives the same text as
# the :.5f format spec
_SAMPLES = tuple(t / 24 for t in range(25))
_POLYLINE = (
    '<polyline points="' + " ".join(["%.5f,%.5f"] * len(_SAMPLES))
    + '" fill="none" stroke="#224488" stroke-width="0.006"/>\n'
)
_LABEL = (
    '<text x="%.5f" y="%.5f" font-size="%.4f" text-anchor="middle" '
    'dominant-baseline="middle" fill="#333333">%s</text>\n'
)
_CORNER = '<circle cx="%.5f" cy="%.5f" r="0.008" fill="#cc3333"/>\n'


def _geodesic_points(z1: complex, z2: complex) -> list:
    """Sample the hyperbolic segment between two disk points at 25
    points, as the flat SVG coordinates x0, y0, x1, y1, ... (y = -Im z)."""
    c1 = z1.conjugate()
    w = (z2 - z1) / (1.0 - c1 * z2)
    coords = []
    for t in _SAMPLES:
        u = w * t
        z = (u + z1) / (1.0 + c1 * u)
        coords += (z.real, -z.imag)
    return coords


def gluing_svg(word, out) -> None:
    """Draw the right-angled polygon of a gluing word: disk, geodesic
    sides, and each token as its side's label.  The tokens are drawn as
    given, not checked: build_map checks a word.  Writes the SVG to the
    text stream out one line at a time, each line ending in a newline,
    so the picture is never held whole.  A four-sided word draws the
    degenerate square as a point at the origin."""
    tokens = _tokens(word)
    n = len(tokens)
    corners = polygon_vertices(n, math.pi / 2.0)
    zs = [complex(x, y) for x, y in corners]
    degenerate = all(abs(z) < tol.SVG_POINT_TOL for z in zs)

    font = max(0.018, min(0.06, 2.5 / n))
    out.write(
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.25 -1.25 2.5 2.5" '
        'width="720" height="720">\n'
        '<rect x="-1.25" y="-1.25" width="2.5" height="2.5" fill="white"/>\n'
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#bbbbbb" '
        'stroke-width="0.004"/>\n'
    )
    if degenerate:
        out.write('<circle cx="0" cy="0" r="0.01" fill="#cc3333"/>\n')
    else:
        for k in range(n):
            out.write(_POLYLINE % tuple(_geodesic_points(zs[k], zs[(k + 1) % n])))
        for k, token in enumerate(tokens):
            phi = 2.0 * math.pi * (k + 0.5) / n
            out.write(_LABEL % (1.09 * math.cos(phi), -1.09 * math.sin(phi), font, token))
        for z in zs:
            out.write(_CORNER % (z.real, -z.imag))
    out.write("</svg>\n")
