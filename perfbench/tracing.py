"""Spans and counters around fillgeo's layers, installed from outside.

``install`` wraps each traced function and puts the wrapper in place of
the original in every fillgeo module namespace that holds it, because
``isoperim`` and ``surfmap`` import the ``polygeom`` kernels by name
and wrapping the defining module alone would miss those calls.
``CombinatorialMap`` and ``ReductionCertificate`` methods are wrapped
on the class.  Spans live in memory until the run writes them out.

Scalar kernels and per-instance helpers are called up to a million
times per op, so they get counters rather than spans.
"""

import sys
from collections import Counter
from time import perf_counter

POLYGEOM_KERNELS = (
    "max_area",
    "max_angle",
    "area_from_angle",
    "angle_from_area",
    "perimeter_from_area",
    "perimeter_from_angle",
    "side_length",
    "perimeter_derivative",
    "perimeter_second_derivative",
    "circumradius",
)
ISOPERIM_CHECKS = (
    "verify_lemma_3_2",
    "verify_lemma_3_3",
    "verify_lemma_3_4",
    "verify_prop_3_5",
    "verify_prop_3_6",
    "verify_theorem_3_1",
    "verify_merge_properties",
    "verify_example_3_12",
)
ISOPERIM_COUNTED = ("random_instance", "check_instance", "validate_instance", "merge_sequence")
SURFMAP_SPANS = (
    "build_map",
    "surface_report",
    "trace_curve",
    "verify_canonical",
    "gluing_svg",
    "from_interchange",
    "to_interchange",
)
REDUCER_SPANS = (
    "find_cutting_curve",
    "is_essential",
    "add_cutting_curve",
    "complement_regions",
    "reduce",
    "validate_input",
)

# span record fields
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Collects spans ``[name, start, end, parent index, op id]`` and counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), None, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def kernel_counter(self, name, fn):
        """Counts calls, and calls made inside each enclosing span name."""
        counts, spans, stack = self.counts, self.spans, self.stack

        def wrapper(*args, **kwargs):
            counts[name] += 1
            counts["within:" + (spans[stack[-1]][NAME] if stack else "")] += 1
            return fn(*args, **kwargs)

        return wrapper

    def orbits_counter(self, fn):
        counts = self.counts

        def wrapper(cmap, perm):
            counts["surfmap.calls.orbits"] += 1
            counts["surfmap.orbit_darts"] += cmap.dart_count
            return fn(cmap, perm)

        return wrapper


def install(tracer):
    """Wrap fillgeo's layers for ``tracer``; returns a function that undoes it."""
    from fillgeo import isoperim, polygeom, reducer, surfmap

    modules = [m for name, m in sys.modules.items()
               if name == "fillgeo" or name.startswith("fillgeo.")]
    undo = []

    def everywhere(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def on_class(cls, attr, wrapper):
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    for fn in POLYGEOM_KERNELS:
        original = getattr(polygeom, fn)
        everywhere(original, tracer.kernel_counter(f"polygeom.calls.{fn}", original))
    for fn in ISOPERIM_CHECKS:
        original = getattr(isoperim, fn)
        everywhere(original, tracer.span(f"isoperim.{fn}", original))
    for fn in ISOPERIM_COUNTED:
        original = getattr(isoperim, fn)
        everywhere(original, tracer.counter(f"isoperim.calls.{fn}", original))
    for fn in SURFMAP_SPANS:
        original = getattr(surfmap, fn)
        everywhere(original, tracer.span(f"surfmap.{fn}", original))
    for fn in REDUCER_SPANS:
        original = getattr(reducer, fn)
        everywhere(original, tracer.span(f"reducer.{fn}", original))

    cmap = surfmap.CombinatorialMap
    on_class(cmap, "orbits", tracer.orbits_counter(cmap.orbits))
    on_class(cmap, "faces", tracer.counter("surfmap.calls.faces", cmap.faces))
    on_class(cmap, "__init__", tracer.counter("surfmap.calls.map_new", cmap.__init__))
    cert = reducer.ReductionCertificate
    on_class(cert, "to_json", tracer.span("reducer.to_json", cert.to_json))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for index, record in enumerate(spans):
        if record[PARENT] is not None:
            children[record[PARENT]].append(index)
    out = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda c: spans[c][START]):
            lo = max(spans[child][START], cursor)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out
