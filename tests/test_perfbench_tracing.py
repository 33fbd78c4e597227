"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces named functions of the polygeom,
isoperim, surfmap and reducer layers, and methods of
``CombinatorialMap`` and ``ReductionCertificate``, when the benchmark
runs with ``--trace 1``.  A deleted or renamed name breaks that mode
with an AttributeError or KeyError, so this test installs the tracer
from the checkout and takes it off again.
"""

import importlib.util
import pathlib

from fillgeo import cli, isoperim, polygeom, reducer, surfmap

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    # loaded by path: perfbench's other modules have generic names
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name_and_restores():
    tracing = load_tracing()
    originals = {
        (module, name): getattr(module, name)
        for module, names in (
            (polygeom, tracing.POLYGEOM_KERNELS),
            (isoperim, tracing.ISOPERIM_CHECKS + tracing.ISOPERIM_COUNTED),
            (surfmap, tracing.SURFMAP_SPANS),
            (reducer, tracing.REDUCER_SPANS),
        )
        for name in names
    }
    restore = tracing.install(tracing.Tracer())
    try:
        wrapped = [key for key, fn in originals.items() if getattr(*key) is not fn]
    finally:
        restore()
    assert len(wrapped) == len(originals)
    assert all(getattr(*key) is fn for key, fn in originals.items())


def test_random_suites_count_through_the_public_checks(capsys):
    # instances are checked when made, so both random suites call
    # check_instance and merge_sequence and the counters see each call
    tracing = load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        code = cli.main(
            ["verify", "--all", "--count", "50", "--samples", "100", "--steps", "2"]
        )
    finally:
        restore()
    capsys.readouterr()
    assert code == 0
    counts = {name: tracer.counts[f"isoperim.calls.{name}"] for name in tracing.ISOPERIM_COUNTED}
    # example 3.12 makes one instance, which the constructor refuses,
    # and checks none
    assert counts == {
        "random_instance": 50,
        "validate_instance": 51,
        "check_instance": 50,
        "merge_sequence": 50,
    }
