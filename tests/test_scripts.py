"""The scripts that no other test runs still run to their closing line.

Each script runs in its own interpreter, as from the command line; a
changed signature inside the package shows here as a traceback or a
missing closing line.  ``bench_pairs.py`` runs the benchmark, which is
too slow here, so only its summary arithmetic is checked, on fixed
numbers.  ``make_reducer_fixtures.py`` writes into a temporary
directory, and what it writes must be the committed map fixtures.
"""

import importlib.util
import json
import pathlib
import platform
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
CLOSING = {
    ("run_all_verifications.py",): lambda line: line.endswith(": all checks passed"),
    ("kissing_threshold.py",): lambda line: line.startswith("i.e. g ~ 10^3730.07"),
    ("reduce_scaling.py", "--repeats", "1"): lambda line: line.startswith("log-log slope"),
}


@pytest.mark.parametrize("command", sorted(CLOSING), ids=" ".join)
def test_script_runs_to_its_closing_line(command):
    script, *args = command
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    closing = run.stdout.strip().splitlines()[-1].strip()
    assert CLOSING[command](closing), closing


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_script_writes_the_committed_fixtures(tmp_path):
    fixtures = load_script("make_reducer_fixtures")
    fixtures.DATA_DIR = tmp_path
    fixtures.main()
    written = {path.name for path in tmp_path.iterdir()}
    committed = SCRIPTS.parent / "tests" / "data"
    for name in written:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name
    maps = {path.name for path in committed.glob("*.json")
            if "dart_count" in json.loads(path.read_text())}
    assert written == maps


def test_bench_pairs_summary_arithmetic():
    bench = load_script("bench_pairs")
    ref = [2.0, 2.2, 1.9, 2.1, 2.0, 2.3, 1.8, 2.0, 2.1, 2.2]
    change = [1.8, 1.9, 1.7, 1.8, 1.9, 2.4, 1.6, 1.7, 1.8, 1.9]
    s = bench.summarize(ref, change, higher_is_better=False)
    # inclusive quartiles of ten values sit at sorted positions 2.25, 4.5, 6.75
    assert s["ref"] == pytest.approx((2.0, 2.05, 2.175))
    assert s["change"] == pytest.approx((1.725, 1.8, 1.9))
    # the sixth pair goes to the ref; the gap 0.25 exceeds the ref's IQR 0.175
    assert (s["wins"], s["losses"], s["pairs"], s["verdict"]) == (9, 1, 10, "gain")
    assert bench.summarize(change, ref, higher_is_better=False)["verdict"] == "worse"
    assert bench.summarize(change, ref, higher_is_better=True)["verdict"] == "gain"
    # ties count for neither side
    flat = bench.summarize([1.0] * 4, [1.0] * 4, higher_is_better=True)
    assert (flat["wins"], flat["losses"], flat["verdict"]) == (0, 0, "")
    # nine wins of ten, but a median gap inside the ref's IQR
    close = bench.summarize(ref, [r - 0.01 for r in ref], higher_is_better=False)
    assert (close["wins"], close["verdict"]) == (10, "")
    assert bench.quartiles([3.5]) == (3.5, 3.5, 3.5)


def test_bench_pairs_reads_the_metric_lines():
    bench = load_script("bench_pairs")
    report = (
        "# verify-suite seed=1 seconds=2 trace=0 passes=3 attempted=3 failed=0 rejected=0\n"
        "cal_wall_s 1.82 s\n"
        "ok_ratio 1.0 ratio\n"
        "op_tail_s 0.5 s  (p90.0 of 40 ops)\n"
        "failed: svg: bad output\n"
        '{"correct": true, "attempted": 3}\n'
    )
    assert bench.parse_report(report) == {
        "cal_wall_s": (1.82, "s"),
        "ok_ratio": (1.0, "ratio"),
        "op_tail_s": (0.5, "s"),
    }


def test_bench_pairs_stops_on_a_wrong_or_failing_run(monkeypatch, capsys):
    bench = load_script("bench_pairs")
    assert bench.parse_verdict('cal_wall_s 1.8 s\n{"correct": false, "failed": 2}\n') == (False, 2)
    assert bench.pair_faults(1, 5, {"ref": (True, 1), "change": (True, 1)}) == []
    # fewer failures on the change side are not a fault
    assert bench.pair_faults(1, 5, {"ref": (True, 2), "change": (True, 0)}) == []
    assert bench.pair_faults(3, 5, {"ref": (False, 0), "change": (True, 1)}) == [
        'ref run of pair 3 at seed 5 printed "correct": false',
        "change run of pair 3 at seed 5 failed 1 ops, the ref run 0",
    ]
    # main stops at the first such pair, with a non-zero exit that names it
    runs = iter([(True, 0), (True, 0), (True, 0), (False, 0)])

    def run_side(root, args):
        return {"cal_wall_s": (1.0, "s")}, next(runs)

    monkeypatch.setattr(bench, "resolve", lambda ref: "0" * 40)
    monkeypatch.setattr(bench, "export", lambda ref, target: None)
    monkeypatch.setattr(bench, "run_side", run_side)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--workload", "verify-suite",
                                      "--pairs", "10", "--seconds", "1", "--seed", "17"])
    with pytest.raises(SystemExit) as stop:
        bench.main()
    # pair 2 runs the change first, so its second run is the ref's
    assert stop.value.code == 'error: ref run of pair 2 at seed 17 printed "correct": false'
    assert capsys.readouterr().out.splitlines()[-1].startswith("pair 2:")


def test_bench_pairs_closes_with_its_json_record(monkeypatch, capsys):
    bench = load_script("bench_pairs")
    # pair i's runs read ref_cal[i] and change_cal[i]; even pairs run the ref first
    ref_cal = [2.0, 2.2, 1.9, 2.1]
    change_cal = [1.8, 1.9, 1.7, 2.3]
    sides = iter([
        ("ref", 0), ("change", 0), ("change", 1), ("ref", 1),
        ("ref", 2), ("change", 2), ("change", 3), ("ref", 3),
    ])

    def run_side(root, args):
        side, i = next(sides)
        cal = (ref_cal if side == "ref" else change_cal)[i]
        metrics = {"cal_wall_s": (cal, "s"), "darts_per_s": (10.0 / cal, "darts/s"),
                   "ok_ratio": (1.0, "ratio")}
        if side == "ref" or i:
            metrics["svg_s"] = (0.5, "s")  # missing from one change run
        return metrics, (True, 0)

    commit = "0123456789abcdef0123456789abcdef01234567"
    exported = []
    monkeypatch.setattr(bench, "resolve", lambda ref: commit if ref == "HEAD~1" else None)
    monkeypatch.setattr(bench, "export", lambda ref, target: exported.append(ref))
    monkeypatch.setattr(bench, "run_side", run_side)
    monkeypatch.setattr(bench, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "HEAD~1", "--workload", "verify-suite",
                                      "--pairs", "4", "--seconds", "2.5", "--seed", "91"])
    bench.main()
    lines = capsys.readouterr().out.splitlines()
    assert exported == [commit]
    assert lines[-2].startswith("ok_ratio (ratio): ref 1 [1, 1]  change 1 [1, 1]  wins 0/4")
    record = json.loads(lines[-1])
    assert {key: record[key] for key in
            ("ref", "ref_commit", "workload", "seed", "pairs", "seconds", "usable_cpus")} == {
        "ref": "HEAD~1", "ref_commit": commit, "workload": "verify-suite",
        "seed": 91, "pairs": 4, "seconds": 2.5, "usable_cpus": 3,
    }
    assert record["python"] == platform.python_version()
    assert record["platform"] == platform.platform()
    # a metric some run lacks is left out, the others keep the runs' order
    metrics = record["metrics"]
    assert list(metrics) == ["cal_wall_s", "darts_per_s", "ok_ratio"]
    cal = metrics["cal_wall_s"]
    assert (cal["unit"], cal["better"]) == ("s", "lower")
    assert (cal["ref_runs"], cal["change_runs"]) == (ref_cal, change_cal)
    # inclusive quartiles of four values sit at sorted positions 0.75, 1.5, 2.25
    assert cal["ref"] == pytest.approx([1.975, 2.05, 2.125])
    assert cal["change"] == pytest.approx([1.775, 1.85, 2.0])
    assert (cal["wins"], cal["losses"], cal["pairs"], cal["verdict"]) == (3, 1, 4, "")
    rate = metrics["darts_per_s"]
    assert (rate["better"], rate["wins"], rate["losses"]) == ("higher", 3, 1)
    assert rate["ref_runs"] == [10.0 / c for c in ref_cal]
