import pathlib
import sys

import hypothesis

# one random_map for the tests and the scripts: ``(valences, seed)``
# names the same map in the tests, the fixture script and the benchmark
# corpus; test modules take it with ``from conftest import random_map``
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))
from make_reducer_fixtures import random_map  # noqa: E402,F401

hypothesis.settings.register_profile(
    "default", max_examples=100, deadline=None
)
hypothesis.settings.load_profile("default")
