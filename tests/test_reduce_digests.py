"""Reduction outcomes stay byte-identical on a fixed input corpus.

``tests/data/reduce_digests.json`` maps each input to its outcome: the
sha256 of the certificate JSON when ``reduce`` returns one (passing or
not), or the exception class and the sha256 of its message when
validation or the reduction raises (an abort message embeds the step
log).  The corpus is every ``tests/data`` fixture, 4-valent 48- and
192-vertex maps for seeds 0..39, and maps of 6 to 10 vertices of
valence 4, 6 or 8 for seeds 0..39.  Any change to a certificate, a
step log or a failure message shows here.  After an intended change
of output, regenerate the file with

    PYTHONPATH=src python tests/test_reduce_digests.py --write

``scripts/reduce_census.py`` must print the pinned ``CENSUS`` line: the
646 validated maps of its 3,000 draws reduce byte-identically too.
"""

import hashlib
import json
import pathlib
import random
import subprocess
import sys
from collections import Counter

from conftest import random_map
from fillgeo import reducer, surfmap
from fillgeo.errors import DomainError, InternalInvariantError, ValidationError

DATA_DIR = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA_DIR / "reduce_digests.json"
CENSUS_SCRIPT = DATA_DIR.parent.parent / "scripts" / "reduce_census.py"
CENSUS = (
    "validated 646 passed 646 failing 0 internal-error 0 "
    "e7b79ddebb2a280f470800cc7ddcd3f5293b2d6b99648bd64742bd34269a7e1d"
)
FIXTURES = (
    "bigon",
    "canonical_g2",
    "canonical_g3",
    "canonical_g4",
    "canonical_g5",
    "second_region_face",
    "sixvalent_a",
    "sixvalent_b",
    "torus_claim",
    "triangle_a",
    "triangle_b",
    "triangle_c",
)
SEEDS = range(40)
FOUR_VALENT_SIZES = (48, 192)
MIXED_VALENCES = (4, 6, 8)
MIXED_SIZES = (24, 48)
MIXED_SIZE_SEEDS = range(5)


def surface_genus(cmap):
    """Genus of the rotation system when it is a reducer input, else None.

    An input is connected, has no face of degree below three and lies
    on a surface of genus at least two.
    """
    faces = cmap.faces()
    if not cmap.is_connected() or min(len(f) for f in faces) < 3:
        return None
    euler = len(cmap.vertices()) - len(cmap.orbits(cmap.alpha)) + len(faces)
    genus = (2 - euler) // 2
    return genus if genus >= 2 else None


def draw_input(rng, valences):
    """Draw maps from rng until one is a reducer input; returns (map, genus)."""
    while True:
        cmap = random_map(rng, valences)
        genus = surface_genus(cmap)
        if genus is not None:
            return cmap, genus


def four_valent(seed, vertices=48):
    return draw_input(random.Random(seed), [4] * vertices)


def mixed(seed, vertices=None):
    """A {4,6,8}-valent input: of 6 to 10 vertices, or of the given count."""
    rng = random.Random(seed)
    count = rng.randint(6, 10) if vertices is None else vertices
    valences = [rng.choice(MIXED_VALENCES) for _ in range(count)]
    return draw_input(rng, valences)


def outcome(map_or_data, genus):
    """The digest of one reduction: certificate hash or failure hash."""
    try:
        cert = reducer.reduce(reducer.validate_input(map_or_data, genus))
    except (DomainError, InternalInvariantError, ValidationError) as err:
        message = hashlib.sha256(str(err).encode()).hexdigest()
        return f"{type(err).__name__} {message}"
    return "certificate " + hashlib.sha256(cert.to_json().encode()).hexdigest()


def corpus():
    """(name, map or interchange data, genus) for every input, in order."""
    for name in FIXTURES:
        data = json.loads((DATA_DIR / f"{name}.json").read_text())
        yield f"fixture/{name}", data, data["genus"]
    for vertices in FOUR_VALENT_SIZES:
        for seed in SEEDS:
            yield (f"four_valent_{vertices}/{seed}", *four_valent(seed, vertices))
    for seed in SEEDS:
        yield (f"mixed/{seed}", *mixed(seed))
    for vertices in MIXED_SIZES:
        for seed in MIXED_SIZE_SEEDS:
            yield (f"mixed_{vertices}/{seed}", *mixed(seed, vertices))


def digests():
    return {name: outcome(cmap, genus) for name, cmap, genus in corpus()}


def test_reduction_outcomes_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    current = digests()
    assert current.keys() == golden.keys()
    changed = sorted(name for name in golden if current[name] != golden[name])
    assert not changed, f"reduction outcome changed for {changed}"


def pinned_certificates():
    """The certificate of every corpus input and reproducer fixture that
    reduces to one."""
    inputs = [(map_or_data, genus) for _, map_or_data, genus in corpus()]
    for path in sorted(DATA_DIR.glob("reproducer_*.json")):
        data = json.loads(path.read_text())
        inputs.append((data, data["genus"]))
    for map_or_data, genus in inputs:
        try:
            yield reducer.reduce(reducer.validate_input(map_or_data, genus))
        except (DomainError, InternalInvariantError, ValidationError):
            continue


def test_pinned_certificates_keep_clean_corners():
    """The split rule's postcondition, read off each certificate alone:
    every vertex of the refined map carries 0, 2, 3 or 4 subgraph germs,
    three of them with exactly one strand-opposite pair and four forming
    two pairs."""
    shapes = Counter()
    for cert in pinned_certificates():
        cmap = surfmap.from_interchange(cert.ambient_map)
        opp, g = cmap.strand_opposites(), set(cert.subgraph_darts)
        for cycle in cmap.vertices():
            germs = {d for d in cycle if d in g}
            shapes[len(germs), sum(opp[d] in germs for d in germs) // 2] += 1
    assert set(shapes) <= {(0, 0), (2, 0), (2, 1), (3, 1), (4, 2)}, shapes
    assert shapes[3, 1] and shapes[4, 2], shapes


def test_reducer_maps_pass_the_public_checks(monkeypatch):
    """The reducer makes its maps without the constructor's checks: each
    map it makes while reducing the corpus and the reproducers passes
    them, and so do the ambient and reduced map of each certificate."""
    made = []
    trusted = surfmap.CombinatorialMap._trusted.__func__

    def recording(cls, *args, **kwargs):
        made.append(trusted(cls, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(surfmap.CombinatorialMap, "_trusted", classmethod(recording))
    certificates = list(pinned_certificates())
    assert len(made) > len(certificates) > 0
    for cmap in made:
        fields = {name: getattr(cmap, name) for name in
                  ("dart_count", "alpha", "sigma", "straight_corners")}
        assert surfmap.CombinatorialMap(**fields) == cmap
    for cert in certificates:
        for data in (cert.ambient_map, cert.reduced_map):
            assert surfmap.to_interchange(surfmap.from_interchange(data)) == data


def test_census_prints_the_pinned_line():
    run = subprocess.run(
        [sys.executable, str(CENSUS_SCRIPT)], capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == CENSUS


def test_reduce_checks_no_curve_of_its_own(monkeypatch):
    """is_essential takes its curve unchecked, because every curve
    reduce judges is valid by construction: unused strand material, a
    loop of the empty subgraph that follows its strand back to its first
    vertex and meets no vertex twice, or an arc or lasso that starts on
    the subgraph and is the walk from its first germ."""
    kinds = Counter()
    judge = reducer.is_essential

    def checked(state, curve):
        alpha, opp, owner, g = state.alpha, state.opp, state.owner, state.g
        darts, kind = curve
        assert not any(d in g or alpha[d] in g for d in darts), curve
        if kind in ("V", "VI"):
            assert state.gcount[owner[darts[0]]], curve
            walk = reducer._walk_arc(alpha, opp, owner, state.gcount, darts[0])
            assert walk == (darts, kind), curve
        else:
            assert not g and kind in ("I", "II", "III", "IV"), curve
            assert all(opp[alpha[d]] == e for d, e in zip(darts, darts[1:])), curve
            assert owner[alpha[darts[-1]]] == owner[darts[0]], curve
            assert len({owner[d] for d in darts}) == len(darts), curve
        kinds[kind] += 1
        return judge(state, curve)

    monkeypatch.setattr(reducer, "is_essential", checked)
    for seed in SEEDS:
        outcome(*mixed(seed))
    assert kinds["V"] and kinds["VI"] and kinds.keys() - {"V", "VI"}, kinds


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
