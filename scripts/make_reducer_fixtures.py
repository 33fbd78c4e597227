"""Generate the reducer test corpus under tests/data/.

Emits, deterministically:
  * canonical_g2.json .. canonical_g5.json: the canonical one-curve maps
  * triangle_a/b/c.json: random 4-valent genus-2 maps with a triangle face
  * sixvalent_a/b.json: random genus-2 maps with one 6-valent vertex
  * bigon.json: two circles crossing twice on a sphere (all faces bigons)
  * torus_claim.json: a multi-curve filling a torus (claimed genus 2 by
    the tests, so validation must reject it)
  * reproducer_<valences>@<seed>.json: the mixed-valence maps listed in
    REPRODUCERS, at the genus of their rotation system
  * second_region_face.json: a mixed-valence map whose reduction makes a
    face of new darts alone in a second region (SECOND_REGION_FACE)

Random fixtures are found by seeded search over rotation systems and
filtered: connected, no face of degree <= 2, right genus, and a full
reduction run that passes its certificate checks.
"""

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fillgeo import reducer, surfmap
from fillgeo.errors import InternalInvariantError, ValidationError
from fillgeo.report import json_text

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"

# Maps random_map(random.Random(seed), valences) on which the reducer
# once raised InternalInvariantError or certified a degree-4 face.
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

# (valence choices, seed) of a map whose reduction refines the map into
# a face made of new darts alone while the complement has two non-disk
# regions, in the second of them: from random.Random(seed), 4 to 10
# valences drawn from the choices, then the map.  Found by seeded search
# over seeds 0..19999; smaller valences and 6-12-vertex {4,6,8} maps
# only ever made such faces in a single region.
SECOND_REGION_FACE = ((6, 8, 10, 12), 16570)


def random_map(rng, valences):
    """A random rotation system with the given vertex valences.

    ``perfbench/corpus.py`` makes its draws in the same order, so
    ``(valences, seed)`` names the same map in the tests, the scripts
    and the benchmark corpus.
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
    return surfmap.CombinatorialMap(
        dart_count=dart,
        alpha=tuple(alpha[d] for d in range(dart)),
        sigma=tuple(sigma[d] for d in range(dart)),
    )


def map_genus(cmap):
    """The genus of the surface a connected map cmap fills, from its
    Euler characteristic; each edge is a pair of darts."""
    euler = len(cmap.vertices()) - cmap.dart_count // 2 + len(cmap.faces())
    return (2 - euler) // 2


def passes_reduction(cmap, genus, want_triangle):
    if not cmap.is_connected():
        return None
    degrees = sorted(len(f) for f in cmap.faces())
    if degrees and degrees[0] <= 2:
        return None
    if want_triangle and 3 not in degrees:
        return None
    if map_genus(cmap) != genus:
        return None
    try:
        cert = reducer.reduce(reducer.validate_input(cmap, genus))
    except (ValidationError, InternalInvariantError):
        return None
    if not cert.passed:
        return None
    return cert


def search(valences, genus, want_triangle, count, seed_base):
    found = []
    seed = seed_base
    while len(found) < count:
        seed += 1
        rng = random.Random(seed)
        cmap = random_map(rng, valences)
        cert = passes_reduction(cmap, genus, want_triangle)
        if cert is None:
            continue
        split_fired = cert.input_dart_count < cert.ambient_map["dart_count"]
        found.append((seed, cmap, cert, split_fired))
        print(
            f"  seed {seed}: faces {sorted(len(f) for f in cmap.faces())}, "
            f"certificate {cert.summary()}, split rule fired: {split_fired}"
        )
    return found


def write_fixture(name, cmap, genus, description):
    data = surfmap.to_interchange(cmap)
    data["genus"] = genus
    data["description"] = description
    path = DATA_DIR / f"{name}.json"
    path.write_text(json_text(data) + "\n")
    print(f"wrote {path}")


def handmade_bigon():
    # two circles crossing twice on a sphere: every face is a bigon
    sigma = [1, 2, 3, 0, 7, 4, 5, 6]
    alpha = [4, 5, 6, 7, 0, 1, 2, 3]
    return surfmap.CombinatorialMap(dart_count=8, alpha=tuple(alpha), sigma=tuple(sigma))


def handmade_torus():
    # two curves crossing twice, filling a torus with two square faces
    sigma = [1, 2, 3, 0, 5, 6, 7, 4]
    alpha = [4, 5, 6, 7, 0, 1, 2, 3]
    return surfmap.CombinatorialMap(dart_count=8, alpha=tuple(alpha), sigma=tuple(sigma))


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    for g in range(2, 6):
        cmap = surfmap.build_map(surfmap.canonical_word(g))
        write_fixture(
            f"canonical_g{g}", cmap, g,
            f"canonical one-curve filling map of genus {g}",
        )

    print("searching for triangle-face genus-2 maps (4-valent) ...")
    triangles = search([4] * 6, 2, want_triangle=True, count=3, seed_base=0)
    for label, (seed, cmap, cert, fired) in zip("abc", triangles):
        write_fixture(
            f"triangle_{label}", cmap, 2,
            f"random 4-valent genus-2 map with a triangle face (seed {seed})",
        )

    print("searching for genus-2 maps with a 6-valent vertex ...")
    sixes = search([6, 4, 4, 4], 2, want_triangle=False, count=2, seed_base=10000)
    for label, (seed, cmap, cert, fired) in zip("ab", sixes):
        write_fixture(
            f"sixvalent_{label}", cmap, 2,
            f"random genus-2 map with one 6-valent vertex (seed {seed}, "
            f"split rule fired: {fired})",
        )

    write_fixture(
        "bigon", handmade_bigon(), 2,
        "two circles crossing twice on a sphere: all faces are bigons, "
        "validation must reject it",
    )
    write_fixture(
        "torus_claim", handmade_torus(), 2,
        "a multi-curve filling a torus; claiming genus 2 must be rejected",
    )

    for valences, seed in REPRODUCERS:
        cmap = random_map(random.Random(seed), valences)
        name = "-".join(map(str, valences))
        write_fixture(
            f"reproducer_{name}@{seed}", cmap, map_genus(cmap),
            f"random map with vertex valences {name} (seed {seed}) on which the "
            "reducer once raised InternalInvariantError or certified a degree-4 face",
        )

    choices, seed = SECOND_REGION_FACE
    rng = random.Random(seed)
    valences = [rng.choice(choices) for _ in range(rng.randint(4, 10))]
    cmap = random_map(rng, valences)
    name = "-".join(map(str, valences))
    write_fixture(
        "second_region_face", cmap, map_genus(cmap),
        f"random map with vertex valences {name} (valences drawn from "
        f"{list(choices)}, seed {seed}) whose reduction makes a face of new "
        "darts alone in the second of two non-disk regions",
    )


if __name__ == "__main__":
    main()
