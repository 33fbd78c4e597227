"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces named functions of the polygeom,
isoperim, surfmap and reducer layers, and methods of
``CombinatorialMap`` and ``ReductionCertificate``, when the benchmark
runs with ``--trace 1``.  A deleted or renamed name breaks that mode
with an AttributeError or KeyError, so this test installs the tracer
from the checkout and takes it off again.
"""

import importlib.util
import json
import pathlib

from fillgeo import cli, isoperim, polygeom, reducer, surfmap

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
REPRODUCER = TRACING.parent.parent / "tests" / "data" / "reproducer_6-6-4-4@690.json"


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


def test_reduce_records_one_is_essential_span_per_trial(monkeypatch, capsys):
    # find_cutting_curve judges each candidate by one is_essential call,
    # and each judgement asks _pushes_off once: counted there, apart
    # from the tracer, the reproducer's reduction makes 9 trials
    trials = []
    pushes_off = reducer._Complement._pushes_off

    def counted(state, cut):
        trials.append(cut.curve)
        return pushes_off(state, cut)

    monkeypatch.setattr(reducer._Complement, "_pushes_off", counted)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        code = cli.main(["reduce", str(REPRODUCER), "--genus", "3", "--json"])
    finally:
        restore()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    spans = tracer.spans
    judged = [span for span in spans if span[tracing.NAME] == "reducer.is_essential"]
    assert len(trials) == 9
    assert len(judged) == len(trials)
    assert all(spans[span[tracing.PARENT]][tracing.NAME] == "reducer.find_cutting_curve"
               for span in judged)
