"""Run one benchmark workload in this process and print its measurements.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Ops go through ``fillgeo.cli.main(argv)`` back to back from this one
process (a closed loop with one client), with stdout and stderr
captured.  A workload is a fixed list of ops, made from SEED alone; it
is run as passes until the next pass would end after SECONDS, and at
least once.  With TRACE 1 every pass runs twice, first untraced and
then traced, so the tracing overhead is measured on the same inputs.

Timings are medians per op over the passes, so a faster program that
fits more passes is timed on the same inputs as a slower one.  Each op
is bracketed by runs of the reference loop of ``calib``, and its
latency is also given scaled to the reference speed; the end-to-end
times are the scaled ones, with the raw total beside them.  The op
counts and verdicts are per op too: an op fails when it fails in any
pass.  The last stdout line is one JSON object for run.py.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import timeit
from time import perf_counter

import calib
import check
import corpus
import tracing

ROOT = pathlib.Path(__file__).resolve().parent.parent
# relative to the checkout root, the working directory, so the file names
# that ops print are the same in every checkout and so are the digests
OUT = pathlib.Path("perfbench") / "_out"

GLUING_GENUS = 8000
SVG_GENUS = 2000
# op latencies on reduce-mixed spread with a coefficient of variation
# near 1.1 between maps, so a run's total varies with the seed's draws by
# about 1.1 / sqrt(maps); this many (47 per vertex count) keep that near
# 5% while one pass fits in a 40 s run on a shared 2-CPU machine
MIXED_RANDOM_MAPS = 423
# rounds of the reduce ladder, fixed per seed; a 384-vertex map's latency
# varies by about 17% between draws and dominates a round, and one pass
# over this many takes 30-45 s on a shared 2-CPU machine, so a run times
# each map about once and a traced run stays well within time
LADDER_ROUNDS = 5


def import_fillgeo():
    sys.path.insert(0, str(ROOT / "src"))
    from fillgeo import cli

    expected = ROOT / "src" / "fillgeo" / "cli.py"
    if pathlib.Path(cli.__file__).resolve() != expected:
        raise SystemExit(f"fillgeo imported from {cli.__file__}, not {expected}")
    return cli.main


class Op:
    """One CLI invocation and how to judge its output."""

    def __init__(self, key, argv, check_output, reduce_input=None, size=None):
        self.key = key
        self.argv = argv
        self.check_output = check_output
        self.reduce_input = reduce_input
        self.size = size
        self.outputs = [a for a, flag in zip(argv[1:], argv) if flag in ("--svg", "--emit-map")]


def read(path):
    with open(path) as handle:
        return handle.read()


def write_map(item, path):
    with open(path, "w") as handle:
        json.dump(item.interchange(), handle)


def reduce_op(item, path, size=None):
    return Op(
        item.label if size is None else f"n{size}@{item.seed}",
        ["reduce", str(path), "--genus", str(item.genus), "--json"],
        lambda out, g=item.genus: check.check_reduce(out, g),
        reduce_input=item,
        size=size,
    )


def verify_suite(seed, work):
    mapfile = work / f"canonical_g{GLUING_GENUS}.json"
    svgfile = work / f"canonical_g{SVG_GENUS}.svg"
    return [
        Op("verify_all", ["verify", "--all", "--seed", str(seed)], check.check_verify),
        Op(
            "gluing",
            ["gluing", "--genus", str(GLUING_GENUS), "--emit-map", str(mapfile), "--json"],
            lambda out: check.check_gluing(out, read(mapfile), GLUING_GENUS),
        ),
        Op(
            "svg",
            ["gluing", "--genus", str(SVG_GENUS), "--svg", str(svgfile)],
            lambda out: check.check_svg(out, read(svgfile), SVG_GENUS),
        ),
    ]


def reduce_ladder(seed, work):
    ops = []
    for index, round_ in enumerate(corpus.ladder(seed, LADDER_ROUNDS)):
        for item in round_:
            size = len(item.valences)
            path = work / f"ladder_{index}_n{size}.json"
            write_map(item, path)
            ops.append(reduce_op(item, path, size))
    return ops


def reduce_mixed(seed, work):
    ops = []
    for index, item in enumerate(corpus.mixed(seed, MIXED_RANDOM_MAPS)):
        path = work / f"mixed_{index:03d}.json"
        write_map(item, path)
        ops.append(reduce_op(item, path))
    return ops


WORKLOADS = {
    "verify-suite": verify_suite,
    "reduce-ladder": reduce_ladder,
    "reduce-mixed": reduce_mixed,
}


def judge(op, stdout):
    """The op's output checks, with unreadable output as one more problem."""
    try:
        return op.check_output(stdout)
    except (ValueError, KeyError, TypeError, OSError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


class Result:
    """What one op did: exit status, latency, output digest, verdict."""

    def __init__(self, op, code, escaped, latency, stdout, stderr):
        self.op = op
        self.code = code
        self.latency = latency
        # the latency at the reference speed; run_pass sets it
        self.scaled = latency
        self.stdout_bytes = len(stdout.encode())
        self.digest = hashlib.sha256(stdout.encode()).hexdigest()
        self.problems = []
        self.darts_added = 0
        self.iterations = 0
        if escaped is not None:
            self.status = "failed"
            self.problems = [escaped]
        elif code == 2 and op.reduce_input is not None:
            # every corpus map passes the reducer's input rules, so a
            # rejection is a wrong answer, not a refusal of bad input
            self.status = "rejected"
            self.problems = [f"rejected an input the corpus accepted: {stderr.strip()[:120]}"]
        elif code != 0:
            self.status = "failed"
            said = stderr.strip().splitlines()
            # a failing certificate says nothing on stderr; the checks say why
            self.problems = [f"exit {code}: {said[0][:120]}"] if said else [f"exit {code}"] + judge(op, stdout)
        else:
            self.problems = judge(op, stdout)
            self.status = "failed" if self.problems else "ok"
        if op.reduce_input is not None and code in (0, 1) and stdout:
            with contextlib.suppress(ValueError, KeyError, TypeError):
                cert = json.loads(stdout)
                self.darts_added = cert["ambient_map"]["dart_count"] - cert["input_dart_count"]
                self.iterations = cert["iterations"]

    @property
    def wrong(self):
        """Exit 0 with an output the checks reject, or a valid input rejected."""
        return (self.code == 0 and self.status == "failed") or self.status == "rejected"


def run_op(main, op):
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped exception is a failed op, not a crashed run
            code, escaped = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    return Result(op, code, escaped, latency, out.getvalue(), err.getvalue())


def run_pass(main, ops, tracer=None):
    """Run every op once, each scaled by the reference loop runs around it.

    The loop runs before the first op and after each op that ends at
    least ``calib.GAP_S`` after its last run, and after the last op.
    """
    results, pending = [], []
    before, last = calib.reference_s(), perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op
        pending.append(run_op(main, op))
        if perf_counter() - last >= calib.GAP_S or index == len(ops) - 1:
            after = calib.reference_s()
            for result in pending:
                result.scaled = calib.scaled(result.latency, before, after)
            results += pending
            pending = []
            before, last = after, perf_counter()
    return results


def median(values):
    return statistics.median(values) if values else 0.0


def by_op(passes):
    """Each op's results over the passes, by op key in op-list order."""
    runs = {}
    for r in (r for p in passes for r in p):
        runs.setdefault(r.op.key, []).append(r)
    return runs


def verdict(results):
    """An op's status over its passes: failed or rejected in any pass, else ok."""
    statuses = {r.status for r in results}
    return next((s for s in ("failed", "rejected") if s in statuses), "ok")


def tail(values):
    """The highest percentile with at least ten values beyond it, and that percentile.

    With ten values or fewer no percentile has ten beyond it; the maximum is given.
    """
    ordered = sorted(values)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def slope(xs, ys):
    """Least-squares slope of log ys against log xs."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def end_to_end(workload, passes):
    runs = by_op(passes)
    ops = {key: results[0].op for key, results in runs.items()}
    latency = {key: median([r.scaled for r in results]) for key, results in runs.items()}
    verdicts = [verdict(results) for results in runs.values()]
    metrics = {
        "cal_wall_s": sum(latency.values()),
        "raw_wall_s": sum(median([r.latency for r in results]) for results in runs.values()),
        "fail_ratio": verdicts.count("failed") / len(verdicts),
        "ok_ratio": verdicts.count("ok") / len(verdicts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {}
    if workload == "verify-suite":
        for key, name in (("verify_all", "verify_all_s"), ("gluing", "gluing_s"), ("svg", "svg_s")):
            metrics[name] = latency[key]
    elif workload == "reduce-ladder":
        sizes = corpus.LADDER_SIZES
        per_size = [median([latency[k] for k, op in ops.items() if op.size == n]) for n in sizes]
        for n, value in zip(sizes, per_size):
            metrics[f"reduce_s.n{n}"] = value
        metrics["reduce_scaling_exp"] = slope(sizes, per_size)
    else:
        latencies = list(latency.values())
        metrics["op_p50_s"] = median(latencies)
        metrics["op_tail_s"], percentile = tail(latencies)
        notes["op_tail_s"] = f"p{percentile:.1f} of {len(latencies)} ops"
        metrics["darts_per_s"] = sum(op.reduce_input.darts for op in ops.values()) / sum(latencies)
    return metrics, notes


def kernel_grid():
    """Fixed arguments inside every kernel's domain: (n, area, theta)."""
    grid = []
    for n in (5, 8, 12, 20):
        max_angle = (n - 2) * math.pi / n
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            grid.append((n, t * (n - 2) * math.pi, math.pi / 2 + t * (max_angle - math.pi / 2)))
    return grid


def kernel_ns_per_call(repeats=5, loops=400):
    """Untraced ns per call of each polygeom kernel over kernel_grid()."""
    from fillgeo import polygeom

    grid = kernel_grid()
    by_area = {"angle_from_area", "perimeter_from_area", "perimeter_derivative",
               "perimeter_second_derivative"}
    out = {}
    for name in tracing.POLYGEOM_KERNELS:
        fn = getattr(polygeom, name)
        if name in ("max_area", "max_angle"):
            calls = [(n,) for n, _, _ in grid]
        elif name in by_area:
            calls = [(n, a) for n, a, _ in grid]
        else:
            calls = [(n, theta) for n, _, theta in grid]

        def sweep():
            for args in calls:
                fn(*args)

        times = timeit.repeat(sweep, repeat=repeats, number=loops)
        out[name] = median(times) / (loops * len(calls)) * 1e9
    return out


def per_layer(tracer, traced, plain):
    spans = tracer.spans
    counts = tracer.counts
    passes = len(traced)
    metrics = {}

    def span_total(name):
        return sum(s[tracing.END] - s[tracing.START] for s in spans if s[tracing.NAME] == name)

    ns = kernel_ns_per_call()
    est = 0.0
    for fn in tracing.POLYGEOM_KERNELS:
        calls = counts[f"polygeom.calls.{fn}"] / passes
        metrics[f"polygeom.calls.{fn}"] = calls
        metrics[f"polygeom.ns_per_call.{fn}"] = ns[fn]
        est += calls * ns[fn] * 1e-9
    metrics["polygeom.est_s"] = est
    notes = {"polygeom.est_s": "computed: sum of calls x untraced ns_per_call"}

    for fn in tracing.ISOPERIM_CHECKS:
        metrics[f"isoperim.span_s.{fn}"] = span_total(f"isoperim.{fn}") / passes
        metrics[f"isoperim.evals.{fn}"] = counts[f"within:isoperim.{fn}"] / passes
    for fn in tracing.ISOPERIM_COUNTED:
        metrics[f"isoperim.calls.{fn}"] = counts[f"isoperim.calls.{fn}"] / passes

    for fn in tracing.SURFMAP_SPANS:
        metrics[f"surfmap.span_s.{fn}"] = span_total(f"surfmap.{fn}") / passes
    for name in ("surfmap.calls.orbits", "surfmap.orbit_darts", "surfmap.calls.map_new",
                 "surfmap.calls.faces"):
        metrics[name] = counts[name] / passes

    for fn in tracing.REDUCER_SPANS + ("to_json",):
        metrics[f"reducer.span_s.{fn}"] = span_total(f"reducer.{fn}") / passes
    results = [r for p in traced for r in p]
    reduce_ops = [r for r in results if r.op.reduce_input is not None]
    # iterations as the certificate states them
    iterations = sum(r.iterations for r in reduce_ops)
    essential_calls = sum(1 for s in spans if s[tracing.NAME] == "reducer.is_essential")
    metrics["reducer.iterations"] = iterations / passes
    metrics["reducer.calls.is_essential"] = essential_calls / passes
    metrics["reducer.essential_ratio"] = iterations / essential_calls if essential_calls else 0.0
    for n in corpus.LADDER_SIZES:
        seconds = sum(s[tracing.END] - s[tracing.START] for s in spans
                      if s[tracing.NAME] == "reducer.reduce" and s[tracing.OP].size == n)
        its = sum(r.iterations for r in reduce_ops if r.op.size == n)
        metrics[f"reducer.s_per_iteration.n{n}"] = seconds / its if its else 0.0
    metrics["reducer.darts_added"] = sum(r.darts_added for r in reduce_ops) / passes
    rejected = sum(r.status == "rejected" for r in reduce_ops)
    metrics["reducer.rejected_ratio"] = rejected / len(reduce_ops) if reduce_ops else 0.0

    own = tracing.self_times(spans)
    metrics["cli.self_s"] = sum(t for s, t in zip(spans, own) if s[tracing.NAME] == "cli.main") / passes
    metrics["cli.stdout_bytes"] = sum(r.stdout_bytes for r in results) / passes
    metrics["trace.overhead_ratio"] = (
        sum(r.latency for r in results) / sum(r.latency for p in plain for r in p)
    )
    return metrics, notes


def write_spans(path, spans):
    with open(path, "w") as handle:
        for s in spans:
            op = s[tracing.OP]
            handle.write(json.dumps({
                "name": s[tracing.NAME], "start": s[tracing.START], "end": s[tracing.END],
                "parent": s[tracing.PARENT], "op": None if op is None else op.key,
            }) + "\n")


def digests(passes):
    """First stdout digest per op key, and keys whose digest varied in the run."""
    first, varied = {}, set()
    for r in (r for p in passes for r in p):
        if first.setdefault(r.op.key, r.digest) != r.digest:
            varied.add(r.op.key)
    return first, sorted(varied)


def main():
    workload, seed, seconds, traced_run = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    cli_main = import_fillgeo()
    work = OUT / workload
    work.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[workload](seed, work)

    tracer = tracing.Tracer() if traced_run else None
    traced_main = tracer.span("cli.main", cli_main) if traced_run else None
    plain, traced = [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        plain.append(run_pass(cli_main, ops))
        if traced_run:
            restore = tracing.install(tracer)
            try:
                traced.append(run_pass(traced_main, ops, tracer))
            finally:
                restore()
        now = perf_counter()
        # stop when another pass as long as the last one would end past the deadline
        if now - start + (now - began) > seconds:
            break

    runs = by_op(plain + traced)
    verdicts = {key: verdict(results) for key, results in runs.items()}
    metrics, notes = end_to_end(workload, plain)
    layers = {}
    if traced_run:
        layers, layer_notes = per_layer(tracer, traced, plain)
        notes.update(layer_notes)
    first, varied = digests(plain + traced)
    # digests accumulate over the runs of one seed in this checkout, traced
    # or not, so a rerun after a code change lists every op whose stdout moved
    stem = f"{workload}-s{seed}"
    results_path = OUT / f"results-{stem}.json"
    before = json.loads(results_path.read_text())["digests"] if results_path.exists() else {}
    changed = sorted(k for k, v in first.items() if before.get(k, v) != v)
    # the problems of an op's first result with its final status
    failing = [(key, status, "; ".join(next(r.problems for r in runs[key] if r.status == status)))
               for key, status in verdicts.items() if status != "ok"]
    summary = {
        "correct": not any(r.wrong for results in runs.values() for r in results),
        "attempted": len(runs),
        "failed": sum(status == "failed" for status in verdicts.values()),
        "rejected": sum(status == "rejected" for status in verdicts.values()),
        "passes": len(plain),
        "metrics": metrics,
        "notes": notes,
        "layers": layers,
        "failing": failing,
        "digests_varied_in_run": varied,
        "digests_changed_since_last_run": changed,
    }
    results_path.write_text(
        json.dumps(dict(summary, digests=dict(before, **first)), indent=1, sort_keys=True) + "\n"
    )
    if traced_run:
        write_spans(OUT / f"spans-{stem}.jsonl", tracer.spans)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
