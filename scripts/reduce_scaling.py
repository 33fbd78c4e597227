"""Time the reducer on seeded 4-valent maps of doubling size.

For each vertex count in 48, 96, 192, 384 and 768 the script draws a
random 4-valent rotation system (``random_map`` of
``scripts/make_reducer_fixtures.py``, redrawn from the same generator
until ``validate_input`` accepts it at its own genus), reduces it
``--repeats`` times and prints the median wall time, the iteration
count and the time per iteration.  The last line is the least-squares
slope of log(seconds) against log(vertices): about 1 for a reducer
linear in map size, 2 for a quadratic one.

    python scripts/reduce_scaling.py [--seed 0] [--repeats 3]
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
from make_reducer_fixtures import random_map

SIZES = (48, 96, 192, 384, 768)


def draw_input(rng, vertices):
    """The first drawn 4-valent map that is a reducer input at its genus."""
    while True:
        cmap = random_map(rng, [4] * vertices)
        euler = len(cmap.vertices()) - len(cmap.edges()) + len(cmap.faces())
        genus = (2 - euler) // 2
        try:
            return reducer.validate_input(cmap, genus)
        except ValidationError:
            continue


def slope(xs, ys):
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return num / sum((x - mx) ** 2 for x in xs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    print("# vertices  genus  iterations  seconds  ms/iteration")
    seconds = []
    for vertices in SIZES:
        filling = draw_input(random.Random(args.seed), vertices)
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            cert = reducer.reduce(filling)
            times.append(time.perf_counter() - start)
        median = statistics.median(times)
        seconds.append(median)
        print(
            f"{vertices}  {filling.genus}  {cert.iterations}  {median:.3f}  "
            f"{1000 * median / cert.iterations:.3f}"
        )
    exponent = slope([math.log(v) for v in SIZES], [math.log(s) for s in seconds])
    print(f"log-log slope (seconds vs vertices): {exponent:.2f}")


if __name__ == "__main__":
    main()
