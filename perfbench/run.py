"""fillgeo benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
taken from ``src/`` of that checkout.  The workload runs in a fresh
child process (``worker.py``).  Around it, fresh interpreters measure
start-up: ``setup_s`` with ``--trace 0``, ``setup.interp_s`` and
``setup.import_s`` with ``--trace 1``.  Every time is scaled to the
speed of a fixed reference loop run next to it (``calib.py``), so that
the drift of a shared host cancels; ``raw_wall_s`` and
``raw_setup_s`` in the report are the unscaled figures.

The report lists every metric of the workload by name and unit; the
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, where ``metrics`` holds the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0`` and its
``per_layer`` metrics with ``--trace 1``.

``attempted`` counts the distinct ops of the workload, however many
passes the run fits.  ``failed`` counts those that exit 1, raise out of
``main`` or fail the output checks in any pass; a reduce op that exits
2 is rejected, not failed, and not ok either.  ``correct`` is false
when an op exits 0 with output the checks reject, that is when the
program reports a wrong answer as a success, or when it rejects a map
of the corpus, all of which are valid reducer input.
"""

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import calib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175
# single fresh-interpreter timings spread by about 15% and the machine
# drifts over tens of seconds, so each start-up figure is the median of
# this many, half taken before the workload and half after it
SETUP_SAMPLES = 16
MINLEN_ARGV = ("-m", "fillgeo", "minlen", "--genus", "2")

UNITS = {"fail_ratio": "ratio", "reduce_scaling_exp": "1", "darts_per_s": "darts/s"}


def unit_of(name, declared):
    if name in declared:
        return declared[name]
    return UNITS.get(name, "s")


def fresh_python(args, env):
    """Raw and scaled wall time, and result, of one fresh interpreter run."""
    before = calib.reference_s()
    start = perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    seconds = perf_counter() - start
    return seconds, calib.scaled(seconds, before, calib.reference_s()), done


def minlen_ok(done):
    """``minlen --genus 2`` printed L(2) = 12 acosh(sqrt(2) cos(pi/12))."""
    if done.returncode != 0:
        return False
    expected = 12 * math.acosh(math.sqrt(2.0) * math.cos(math.pi / 12))
    value = float(done.stdout.split()[-1])
    return abs(value - expected) <= 1e-12 * expected


def sample_setup(traced, env, samples):
    """Add half of the start-up samples; False when a fresh run went wrong."""
    ok = True
    for _ in range(SETUP_SAMPLES // 2):
        if traced:
            samples["interp"].append(fresh_python(("-c", "pass"), env)[1])
            _, seconds, done = fresh_python(("-c", "import fillgeo.cli"), env)
            samples["import"].append(seconds)
            ok = ok and done.returncode == 0
        else:
            raw, seconds, done = fresh_python(MINLEN_ARGV, env)
            samples["raw_minlen"].append(raw)
            samples["minlen"].append(seconds)
            ok = ok and minlen_ok(done)
    return ok


def setup_metrics(samples):
    if "minlen" in samples:
        return {"setup_s": statistics.median(samples["minlen"]),
                "raw_setup_s": statistics.median(samples["raw_minlen"])}
    interp_s = statistics.median(samples["interp"])
    return {"setup.interp_s": interp_s,
            "setup.import_s": statistics.median(samples["import"]) - interp_s}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()

    if not (ROOT / "src" / "fillgeo" / "cli.py").is_file():
        sys.exit(f"error: no fillgeo sources under {ROOT / 'src'}")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    samples = defaultdict(list)
    setup_ok = sample_setup(args.trace == 1, env, samples)
    if args.trace == 1 and not setup_ok:
        sys.exit("error: fillgeo.cli does not import")
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
         str(args.seconds), str(args.trace)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=DEADLINE_S - (perf_counter() - started),
    )
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        sys.exit(f"error: workload {args.workload} exited {worker.returncode}")
    run = json.loads(worker.stdout.splitlines()[-1])
    setup_ok = sample_setup(args.trace == 1, env, samples) and setup_ok
    setup = setup_metrics(samples)

    section = "per_layer" if args.trace == 1 else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    measured = dict(run["layers"] if args.trace == 1 else run["metrics"], **setup)
    missing = sorted(set(declared) - set(measured))
    if missing:
        sys.exit(f"error: metrics not measured: {', '.join(missing)}")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"passes={run['passes']} attempted={run['attempted']} failed={run['failed']} "
          f"rejected={run['rejected']}")
    for name, value in measured.items():
        note = run["notes"].get(name)
        print(f"{name} {value!r} {unit_of(name, declared)}" + (f"  ({note})" if note else ""))
    for key, status, problem in run["failing"]:
        print(f"{status}: {key}: {problem}")
    for key in run["digests_varied_in_run"]:
        print(f"stdout digest varied between passes: {key}")
    for key in run["digests_changed_since_last_run"]:
        print(f"stdout digest changed since the last run of this seed: {key}")

    print(json.dumps({
        "correct": run["correct"] and setup_ok,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in declared.items()},
    }))


if __name__ == "__main__":
    main()
