#!/usr/bin/env python3
"""Compare the benchmark on a git ref and on the working tree, in pairs.

    python scripts/bench_pairs.py [REF] --workload W --pairs N --seconds S --seed K

REF (default HEAD) is exported with ``git archive`` (its ``src``,
``perfbench`` and ``BENCHMARK.json``) into a temporary directory.
``perfbench/run.py`` then runs N times there and N times in the working
tree, in pairs with the same workload, seed and run length; the side
that goes first alternates from pair to pair, so a drift of the host
favours neither.  For every metric the runs print, the script prints
each side's median and quartiles and how many pairs the change won;
ties count for neither side.  A metric reads "gain" when the change
won at least nine tenths of the pairs and the medians differ by more
than the interquartile range of the ref's runs, "worse" when the ref
did so, and nothing otherwise.

Which way is better comes from BENCHMARK.json's end-to-end metrics;
of the other metrics, a rate (a unit per second) is better higher and
anything else is better lower.

A pair in which either run's closing JSON line reads ``"correct":
false``, or in which the change fails more ops than the ref, stops the
script with a non-zero exit that names the side, the pair and the seed:
the timings of a wrong answer compare nothing.
"""

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPORTED = ("src", "perfbench", "BENCHMARK.json")


def quartiles(values):
    """(first quartile, median, third quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(ref_runs, change_runs, higher_is_better):
    """The comparison of one metric over pairs: ref_runs[i] and
    change_runs[i] are the two sides of pair i."""
    ref_q, change_q = quartiles(ref_runs), quartiles(change_runs)
    sign = 1 if higher_is_better else -1
    gaps = [sign * (c - r) for r, c in zip(ref_runs, change_runs)]
    wins = sum(1 for gap in gaps if gap > 0)
    losses = sum(1 for gap in gaps if gap < 0)
    pairs = len(gaps)
    spread = ref_q[2] - ref_q[0]
    gain = sign * (change_q[1] - ref_q[1])
    if 10 * wins >= 9 * pairs and gain > spread:
        verdict = "gain"
    elif 10 * losses >= 9 * pairs and -gain > spread:
        verdict = "worse"
    else:
        verdict = ""
    return {
        "ref": ref_q,
        "change": change_q,
        "wins": wins,
        "losses": losses,
        "pairs": pairs,
        "verdict": verdict,
    }


def parse_report(stdout):
    """{metric: (value, unit)} from the ``name value unit`` lines of a run."""
    metrics = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "{")):
            try:
                metrics[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                continue
    return metrics


def parse_verdict(stdout):
    """(correct, failed) from the JSON line that closes a run."""
    closing = json.loads(stdout.splitlines()[-1])
    return closing["correct"], closing["failed"]


def pair_faults(pair, seed, verdicts):
    """Why pair number pair cannot be compared, given each side's
    (correct, failed): a wrong answer on either side, or more failed
    ops on the change's."""
    faults = [f'{side} run of pair {pair} at seed {seed} printed "correct": false'
              for side, (correct, _) in verdicts.items() if not correct]
    ref_failed, change_failed = verdicts["ref"][1], verdicts["change"][1]
    if change_failed > ref_failed:
        faults.append(f"change run of pair {pair} at seed {seed} failed {change_failed} "
                      f"ops, the ref run {ref_failed}")
    return faults


def export(ref, target):
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref, "--", *EXPORTED],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def run_side(root, args):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"error: benchmark in {root} exited {done.returncode}:\n{done.stderr}")
    return parse_report(done.stdout), parse_verdict(done.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", nargs="?", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    higher = {m["name"]: m["better"] == "higher" for m in declared}
    runs = {"ref": [], "change": []}
    with tempfile.TemporaryDirectory() as refdir:
        export(args.ref, refdir)
        for i in range(args.pairs):
            order = (("ref", refdir), ("change", ROOT))
            verdicts = {}
            for side, root in order if i % 2 == 0 else order[::-1]:
                metrics, verdicts[side] = run_side(root, args)
                runs[side].append(metrics)
            cal = [runs[side][-1].get("cal_wall_s", (float("nan"),))[0] for side in runs]
            print(f"pair {i + 1}: cal_wall_s ref {cal[0]:.4f} change {cal[1]:.4f}", flush=True)
            faults = pair_faults(i + 1, args.seed, verdicts)
            if faults:
                sys.exit("error: " + "; ".join(faults))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"pairs={args.pairs} ref={args.ref}: median [q1, q3]")
    for name, (_, unit) in runs["ref"][0].items():
        if not all(name in run for run in runs["change"]):
            continue
        better_higher = higher.get(name, unit.endswith("/s"))
        s = summarize([run[name][0] for run in runs["ref"]],
                      [run[name][0] for run in runs["change"]], better_higher)
        print(f"{name} ({unit}): ref {s['ref'][1]:.6g} [{s['ref'][0]:.6g}, {s['ref'][2]:.6g}]"
              f"  change {s['change'][1]:.6g} [{s['change'][0]:.6g}, {s['change'][2]:.6g}]"
              f"  wins {s['wins']}/{s['pairs']} {s['verdict']}".rstrip())


if __name__ == "__main__":
    main()
