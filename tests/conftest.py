import hypothesis

from fillgeo import surfmap

hypothesis.settings.register_profile(
    "default", max_examples=100, deadline=None
)
hypothesis.settings.load_profile("default")


def random_map(rng, valences):
    """A random rotation system with the given vertex valences.

    The draws are made in the order of ``random_map`` in
    ``scripts/make_reducer_fixtures.py``, so ``(valences, seed)`` names
    the same map in the tests, that script and the benchmark corpus.
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
