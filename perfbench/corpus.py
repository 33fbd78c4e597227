"""Seeded map inputs for the benchmark, built without importing fillgeo.

A map is a rotation system given by two permutation lists: ``alpha``
pairs the darts into edges and ``sigma`` rotates the darts around each
vertex.  ``random_map`` makes its random draws in exactly the order of
``random_map`` in ``scripts/make_reducer_fixtures.py``, so a pair
``(valences, seed)`` names the same map here as in that script and in
the reducer reproducer list of the roadmap.
"""

import random

# The reducer failures listed in ROADMAP item 3, as (valences, seed).
REPRODUCERS = (
    ((6, 4, 4, 4, 4), 397),
    ((6, 6, 4, 4), 305),
    ((6, 6, 4, 4), 690),
    ((6, 6, 4, 4), 1565),
    ((6, 6, 6, 6), 46),
    ((6, 6, 6, 6), 81),
    ((6, 6, 6, 6), 1439),
    ((6, 6, 6, 6), 242),
    ((10, 4, 4, 4), 480),
    ((6, 6, 6, 4, 4, 4), 482),
    ((6, 4, 4, 4, 4), 1020),
    ((8, 6, 4, 4, 4), 775),
)

LADDER_SIZES = (48, 96, 192, 384)
MIXED_VERTICES = (4, 12)
MIXED_VALENCES = (4, 6, 8)


def random_map(rng, valences):
    """A random rotation system with the given vertex valences.

    Returns ``(alpha, sigma)`` as lists indexed by dart.
    """
    dart = 0
    sigma = {}
    for val in valences:
        cycle = list(range(dart, dart + val))
        rng.shuffle(cycle)
        for i, d in enumerate(cycle):
            sigma[d] = cycle[(i + 1) % val]
        dart += val
    darts = list(range(dart))
    rng.shuffle(darts)
    alpha = {}
    for i in range(0, dart, 2):
        a, b = darts[i], darts[i + 1]
        alpha[a] = b
        alpha[b] = a
    return [alpha[d] for d in range(dart)], [sigma[d] for d in range(dart)]


def orbits(perm):
    """The cycles of a permutation given as a list."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        d = start
        while not seen[d]:
            seen[d] = True
            cycle.append(d)
            d = perm[d]
        cycles.append(cycle)
    return cycles


def face_orbits(alpha, sigma):
    """Faces traced with next(d) = sigma(alpha(d))."""
    return orbits([sigma[alpha[d]] for d in range(len(alpha))])


def is_connected(alpha, sigma):
    seen = [False] * len(alpha)
    seen[0] = True
    stack = [0]
    while stack:
        d = stack.pop()
        for e in (alpha[d], sigma[d]):
            if not seen[e]:
                seen[e] = True
                stack.append(e)
    return all(seen)


def genus(alpha, sigma):
    """Genus of the orientable surface carrying a connected map."""
    euler = len(orbits(sigma)) - len(alpha) // 2 + len(face_orbits(alpha, sigma))
    return (2 - euler) // 2


def accepted_genus(alpha, sigma):
    """The map's genus when the benchmark accepts it as input, else None.

    Accepted maps are connected, have no face of degree below three
    and carry a surface of genus at least two.
    """
    if not is_connected(alpha, sigma):
        return None
    if min(len(f) for f in face_orbits(alpha, sigma)) < 3:
        return None
    g = genus(alpha, sigma)
    return g if g >= 2 else None


class MapInput:
    """One reducer input: the map, its genus and the pair that names it."""

    def __init__(self, valences, seed):
        self.valences = tuple(valences)
        self.seed = seed
        self.alpha, self.sigma = random_map(random.Random(seed), self.valences)
        self.genus = accepted_genus(self.alpha, self.sigma)

    @property
    def darts(self):
        return len(self.alpha)

    @property
    def label(self):
        return f"{list(self.valences)}@{self.seed}"

    def interchange(self):
        return {
            "dart_count": len(self.alpha),
            "alpha": self.alpha,
            "sigma": self.sigma,
            "straight_corners": [],
        }


def _draw_accepted(rng, valences):
    """Draw map seeds from rng until one names an accepted map."""
    while True:
        item = MapInput(valences, rng.randrange(2**31))
        if item.genus is not None:
            return item


def ladder(seed, rounds):
    """``rounds`` rounds of 4-valent maps, one map per ladder size each."""
    rng = random.Random(f"ladder:{seed}")
    return [[_draw_accepted(rng, (4,) * n) for n in LADDER_SIZES] for _ in range(rounds)]


def mixed(seed, count):
    """The reproducers followed by ``count`` accepted mixed-valence maps.

    Random map i has 4 + (i mod 9) vertices, so every run covers 4 to 12
    vertices evenly, with each valence drawn from {4, 6, 8}.
    """
    rng = random.Random(f"mixed:{seed}")
    items = [MapInput(v, s) for v, s in REPRODUCERS]
    lo, hi = MIXED_VERTICES
    for i in range(count):
        vertices = lo + i % (hi - lo + 1)
        valences = [rng.choice(MIXED_VALENCES) for _ in range(vertices)]
        items.append(_draw_accepted(rng, valences))
    return items
