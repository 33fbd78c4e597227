"""Reduce a pinned census of random {4,6,8}-valent maps and digest the outcomes.

The census makes 3,000 draws from ``random.Random(12345)``.  A draw
picks a vertex count from 4 to 12 and a valence from 4, 6 and 8 for
each vertex; a draw whose valences have an odd sum is skipped before
any map is drawn.  Otherwise ``random_map`` of
``scripts/make_reducer_fixtures.py`` draws the rotation system, which
is kept when it is connected, has no face of degree below three and
has genus at least two.  Each kept map goes through ``validate_input``
at its own genus and then ``reduce``.

The script prints how many maps were validated, how many certificates
passed or failed and how many reductions raised InternalInvariantError,
then one sha256 over the ordered outcomes: each certificate's JSON, or
the class and message of the exception raised.  Two versions of the
reducer that print the same line reduce the census identically.

    python scripts/reduce_census.py
"""

import hashlib
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fillgeo import reducer
from fillgeo.errors import InternalInvariantError, ValidationError
from make_reducer_fixtures import map_genus, random_map

SEED = 12345
DRAWS = 3000


def census_maps():
    """The kept maps of the census with their genus, in draw order."""
    rng = random.Random(SEED)
    for _ in range(DRAWS):
        n = rng.randint(4, 12)
        valences = [rng.choice((4, 6, 8)) for _ in range(n)]
        if sum(valences) % 2:
            continue
        cmap = random_map(rng, valences)
        if not cmap.is_connected() or min(len(f) for f in cmap.faces()) < 3:
            continue
        genus = map_genus(cmap)
        if genus >= 2:
            yield cmap, genus


def main():
    counts = dict.fromkeys(("validated", "passed", "failing", "internal-error"), 0)
    digest = hashlib.sha256()
    for cmap, genus in census_maps():
        try:
            filling = reducer.validate_input(cmap, genus)
            counts["validated"] += 1
            cert = reducer.reduce(filling)
        except (ValidationError, InternalInvariantError) as err:
            counts["internal-error"] += isinstance(err, InternalInvariantError)
            outcome = f"{type(err).__name__}: {err}"
        else:
            counts["passed" if cert.passed else "failing"] += 1
            outcome = cert.to_json()
        digest.update(outcome.encode() + b"\n")
    print(" ".join(f"{name} {n}" for name, n in counts.items()), digest.hexdigest())


if __name__ == "__main__":
    main()
