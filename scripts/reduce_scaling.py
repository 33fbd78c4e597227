"""Time the reducer on seeded maps of doubling size.

For each vertex count in 48, 96, 192, 384 and 768 the script draws a
random 4-valent rotation system (``random_map`` of
``scripts/make_reducer_fixtures.py``, redrawn from the same generator
until ``validate_input`` accepts it at its own genus), reduces it
``--repeats`` times and prints the median wall time, the iteration
count and the time per iteration.  One more, untimed reduction counts
the candidate curves judged (trials), the arc walks of the scan, and
the refinements of the map by the split rule and the copies of the
complement, both made only where the split rule moves a curve end.  It
wraps ``is_essential``, the one judge that ``reduce`` drives through
``find_cutting_curve``, ``_walk_arc``, ``_MutableMap._refine`` and
``_Complement.copy`` from outside the reducer.  The last line is the
least-squares slope of log(seconds) against log(vertices): about 1 for
a reducer linear in map size, 2 for a quadratic one.

With ``--valences 4,6,8`` (any set other than the default 4) the ladder
is 24, 48, 96, 192, 384 and 768 vertices, and each vertex valence is
drawn from the set before the map, from the same generator; the maps of
24 and 48 vertices are then the ``mixed_24``/``mixed_48`` maps of
``tests/test_reduce_digests.py`` for the same seed.

    python scripts/reduce_scaling.py [--seed 0] [--repeats 3] [--valences 4]
"""

import argparse
import math
import pathlib
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fillgeo import reducer
from fillgeo.errors import ValidationError
from make_reducer_fixtures import map_genus, random_map

SIZES = (48, 96, 192, 384, 768)
MIXED_SIZES = (24, 48, 96, 192, 384, 768)


def draw_input(rng, vertices, valences):
    """The first drawn map that is a reducer input at its genus.

    One valence draws nothing for the valence list, so the 4-valent
    maps do not depend on how the mixed ones are drawn.
    """
    if len(valences) == 1:
        degrees = list(valences) * vertices
    else:
        degrees = [rng.choice(valences) for _ in range(vertices)]
    while True:
        cmap = random_map(rng, degrees)
        try:
            return reducer.validate_input(cmap, map_genus(cmap))
        except ValidationError:
            continue


def valence_set(text):
    """Parse '4,6,8' into a tuple of even valences of at least four."""
    try:
        valences = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"valences must be integers, got {text!r}")
    if any(v < 4 or v % 2 for v in valences):
        raise argparse.ArgumentTypeError(f"valences must be even and at least 4, got {text!r}")
    return valences


def counted(filling):
    """(trials, walks, refinements, copies) of one reduction of filling."""
    counts = {"trials": 0, "walks": 0, "refinements": 0, "copies": 0}
    judge, walk = reducer.is_essential, reducer._walk_arc
    tables, state = reducer._MutableMap, reducer._Complement
    refine, copy = tables._refine, state.copy

    def counted_judge(state, curve):
        counts["trials"] += 1
        return judge(state, curve)

    def counted_walk(*args):
        counts["walks"] += 1
        return walk(*args)

    def counted_refine(self, *args):
        counts["refinements"] += 1
        return refine(self, *args)

    def counted_copy(self):
        counts["copies"] += 1
        return copy(self)

    reducer.is_essential, reducer._walk_arc = counted_judge, counted_walk
    tables._refine, state.copy = counted_refine, counted_copy
    try:
        reducer.reduce(filling)
    finally:
        reducer.is_essential, reducer._walk_arc = judge, walk
        tables._refine, state.copy = refine, copy
    return tuple(counts.values())


def slope(xs, ys):
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return num / sum((x - mx) ** 2 for x in xs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--valences", type=valence_set, default=(4,),
        help="comma-separated vertex valences, e.g. 4,6,8 (default: 4)",
    )
    args = parser.parse_args(argv)
    sizes = SIZES if args.valences == (4,) else MIXED_SIZES

    print("# vertices  genus  iterations  seconds  ms/iteration  trials  walks  refinements  copies")
    seconds = []
    for vertices in sizes:
        filling = draw_input(random.Random(args.seed), vertices, args.valences)
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            cert = reducer.reduce(filling)
            times.append(time.perf_counter() - start)
        median = statistics.median(times)
        seconds.append(median)
        counts = "  ".join(map(str, counted(filling)))
        print(
            f"{vertices}  {filling.genus}  {cert.iterations}  {median:.3f}  "
            f"{1000 * median / cert.iterations:.3f}  {counts}"
        )
    exponent = slope([math.log(v) for v in sizes], [math.log(s) for s in seconds])
    print(f"log-log slope (seconds vs vertices): {exponent:.2f}")


if __name__ == "__main__":
    main()
