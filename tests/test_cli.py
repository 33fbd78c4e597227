"""Command line behaviour: subcommands, exit codes, output formats."""

import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from fillgeo import cli, polygeom, surfmap

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def run_cli(argv, capsys):
    """Run the CLI and return (exit code, stdout, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out):
    return [line for line in out.splitlines() if line and not line.startswith("#")]


class TestMinlen:
    def test_single_genus_row(self, capsys):
        code, out, _ = run_cli(["minlen", "--genus", "2"], capsys)
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 1
        fields = rows[0].split()
        assert fields[0] == "2"
        assert fields[1] == "12"
        assert float(fields[4]) == polygeom.min_filling_length(2)

    def test_range_is_monotone(self, capsys):
        code, out, _ = run_cli(["minlen", "--genus", "2..5"], capsys)
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 4
        lengths = [float(r.split()[4]) for r in rows]
        assert lengths == sorted(lengths)
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_genus_one_is_usage_error(self, capsys):
        code, _, err = run_cli(["minlen", "--genus", "1"], capsys)
        assert code == 2
        assert "genus" in err

    def test_bad_range_syntax(self, capsys):
        code, _, _ = run_cli(["minlen", "--genus", "two..5"], capsys)
        assert code == 2
        code, _, _ = run_cli(["minlen", "--genus", "5..2"], capsys)
        assert code == 2

    def test_json_output(self, capsys):
        code, out, _ = run_cli(["minlen", "--genus", "3", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["genus"] == 3
        assert payload[0]["min_filling_length"] == polygeom.min_filling_length(3)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, out, _ = run_cli(["minlen", "--genus", "2..4"], capsys)
        path = tmp_path / "table.txt"
        code, silent, _ = run_cli(["minlen", "--genus", "2..4", "--out", str(path)], capsys)
        assert code == 0
        assert silent == ""
        assert path.read_text() == out

    def test_reproducible(self, capsys):
        _, first, _ = run_cli(["minlen", "--genus", "2..6"], capsys)
        _, second, _ = run_cli(["minlen", "--genus", "2..6"], capsys)
        assert first == second

    def test_side_column_is_polygon_side(self, capsys):
        # the text table prints the same side as --json, not perimeter / n
        code, out, _ = run_cli(["minlen", "--genus", "2..50"], capsys)
        assert code == 0
        for row in data_rows(out):
            genus, _, side = row.split()[:3]
            assert side == repr(polygeom.extremal_report(int(genus)).polygon_side)


class TestPolygon:
    def test_from_angle(self, capsys):
        code, out, _ = run_cli(
            ["polygon", "--n", "12", "--theta", repr(math.pi / 2.0)], capsys
        )
        assert code == 0
        values = dict(line.split("=", 1) for line in out.splitlines())
        assert float(values["side"]) == polygeom.side_length(12, math.pi / 2.0)
        assert float(values["circumradius"]) == polygeom.circumradius(12, math.pi / 2.0)

    def test_from_area_json(self, capsys):
        code, out, _ = run_cli(
            ["polygon", "--n", "5", "--area", "5", "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["perimeter"] == polygeom.perimeter_from_area(5, 5.0)

    def test_theta_and_area_conflict(self, capsys):
        code, _, _ = run_cli(
            ["polygon", "--n", "5", "--theta", "1.0", "--area", "1.0"], capsys
        )
        assert code == 2

    def test_requires_theta_or_area(self, capsys):
        code, _, _ = run_cli(["polygon", "--n", "5"], capsys)
        assert code == 2

    def test_angle_beyond_limit_rejected(self, capsys):
        code, _, err = run_cli(["polygon", "--n", "3", "--theta", "1.1"], capsys)
        assert code == 2
        assert "error:" in err

    def test_infinite_side_count_rejected_by_name(self, capsys):
        code, _, err = run_cli(["polygon", "--n", "inf", "--area", "1"], capsys)
        assert code == 2
        assert "error: side count must be finite" in err


class TestVerify:
    def test_example312_prints_both_sides(self, capsys):
        code, out, _ = run_cli(["verify", "example312"], capsys)
        assert code == 0
        assert "[PASS] example_3_12" in out
        lhs_line = next(l for l in out.splitlines() if l.strip().startswith("lhs"))
        rhs_line = next(l for l in out.splitlines() if l.strip().startswith("rhs"))
        lhs = float(lhs_line.split("=")[-1])
        rhs = float(rhs_line.split("=")[-1])
        assert lhs < rhs

    def test_lemma34_large_n_failure_is_expected(self, capsys):
        code, out, _ = run_cli(["verify", "lemma34", "--n", "30"], capsys)
        assert code == 0
        assert "[PASS] lemma_3_4_n30" in out

    def test_lemma34_small_n_decreasing(self, capsys):
        code, out, _ = run_cli(
            ["verify", "lemma34", "--n", "8", "--samples", "2000"], capsys
        )
        assert code == 0
        assert "[PASS] lemma_3_4_n8" in out

    def test_unknown_selector(self, capsys):
        code, _, _ = run_cli(["verify", "lemma99"], capsys)
        assert code == 2

    def test_all_reports_every_check(self, capsys):
        code, out, _ = run_cli(
            [
                "verify", "--all",
                "--steps", "6",
                "--samples", "500",
                "--count", "80",
            ],
            capsys,
        )
        assert code == 0
        passes = [l for l in out.splitlines() if l.startswith("[PASS]")]
        # 1 + 17 + 4 + 1 + 1 + 1 + 1 + 1 checks
        assert len(passes) == 27
        assert not any(l.startswith("[FAIL]") for l in out.splitlines())

    def test_json_lists_selected_checks(self, capsys):
        code, out, _ = run_cli(
            ["verify", "thm31", "--count", "60", "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["check_id"] for r in payload] == ["theorem_3_1"]
        assert payload[0]["passed"] is True

    def test_same_seed_same_bytes(self, capsys):
        argv = ["verify", "thm31", "--count", "60", "--seed", "7", "--json"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_instance_count_below_one_is_usage_error(self, capsys):
        # no instance drawn is no evidence: the sweep must not pass vacuously
        assert cli.main(["verify", "thm31", "--count", "0"]) == 2
        code, out, err = run_cli(["verify", "thm31", "--count", "-3", "--json"], capsys)
        assert code == 2
        assert out == ""
        assert "instance count must be at least 1" in err

    def test_instance_count_is_refused_before_any_sweep(self, capsys, monkeypatch):
        from fillgeo import isoperim

        def sweep(*args):
            raise AssertionError("a sweep ran before the count was refused")

        monkeypatch.setattr(isoperim, "verify_lemma_3_2", sweep)
        code, out, err = run_cli(["verify", "--all", "--count", "0"], capsys)
        assert (code, out) == (2, "")
        assert "instance count must be at least 1" in err

    @pytest.mark.parametrize("which", ["--all", "prop35"])
    def test_sample_count_is_refused_before_any_sweep(self, capsys, monkeypatch, which):
        from fillgeo import isoperim

        def sweep(*args):
            raise AssertionError("a sweep ran before the sample count was refused")

        for name in ("verify_lemma_3_2", "verify_prop_3_5"):
            monkeypatch.setattr(isoperim, name, sweep)
        code, out, err = run_cli(["verify", which, "--samples", "50"], capsys)
        assert (code, out) == (2, "")
        assert "need at least 100 samples, got 50" in err

    @pytest.mark.parametrize("argv, message", [
        (["--all", "--n", "4"], "need integer n >= 5, got 4"),
        (["--all", "--n", "3"], "need integer n >= 4, got 3"),
        (["lemma33", "--n", "3"], "need integer n >= 4, got 3"),
        (["lemma34", "--n", "4"], "need integer n >= 5, got 4"),
        (["lemma33", "--n", str(10**400)], "side count must be finite"),
        (["lemma34", "--n", str(10**400)], "side count must be finite"),
    ])
    def test_side_count_is_refused_before_any_sweep(self, capsys, monkeypatch, argv, message):
        from fillgeo import isoperim

        def sweep(*args):
            # raised, not recorded: a sweep may run in a forked child
            raise AssertionError("a sweep ran before the side count was refused")

        for name in dir(isoperim):
            if name.startswith("verify_"):
                monkeypatch.setattr(isoperim, name, sweep)
        code, out, err = run_cli(["verify", *argv], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_all_draws_and_validates_each_instance_once(self, capsys, monkeypatch):
        from fillgeo import isoperim

        calls = {"random_instance": 0, "validate_instance": 0}
        for name in calls:
            original = getattr(isoperim, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(isoperim, name, counted)
        code, _, _ = run_cli(
            ["verify", "--all", "--count", "50", "--samples", "100", "--steps", "2"],
            capsys,
        )
        assert code == 0
        # both random suites share one draw; example 3.12 validates one
        # instance, which the constructor refuses
        assert calls == {"random_instance": 50, "validate_instance": 51}


SMALL_VERIFY = ["verify", "--all", "--count", "5", "--samples", "100", "--steps", "2"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """verify --all forks its sweeps, whatever this host's CPU count."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)


class TestVerifyInChild:
    @pytest.mark.parametrize("flags", [
        (), ("--steps", "3", "--samples", "150", "--count", "40"),
    ], ids=["default density", "small density"])
    def test_child_reports_equal_in_process(self, monkeypatch, two_cpus, flags):
        args = cli.build_parser().parse_args(["verify", "--all", *flags])
        children = []
        in_child = cli._in_child
        monkeypatch.setattr(cli, "_in_child", lambda run: children.append(run) or in_child(run))
        forked = cli._verify_reports("all", args)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        in_process = cli._verify_reports("all", args)
        assert len(children) == 1
        # repr, so that a NaN in the details compares equal to itself
        assert repr(forked) == repr(in_process)
        assert_no_child_left()

    @pytest.mark.parametrize("fallback", ["one cpu", "no fork"])
    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    def test_in_process_path_prints_the_same_bytes(self, capsys, monkeypatch, two_cpus,
                                                    fallback, fmt):
        forked = run_cli([*SMALL_VERIFY, *fmt], capsys)
        monkeypatch.setattr(cli, "_in_child", lambda run: pytest.fail("forked"))
        if fallback == "one cpu":
            monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        elif fallback == "no fork":
            monkeypatch.delattr(os, "fork")
        assert run_cli([*SMALL_VERIFY, *fmt], capsys) == forked
        assert forked[0] == 0 and forked[1]

    @pytest.mark.parametrize("error, code, prefix", [
        ("ValidationError", 2, "error: "),
        ("InternalInvariantError", 1, "invariant failure: "),
    ])
    def test_child_exception_keeps_its_exit_code(self, capsys, monkeypatch, two_cpus,
                                                  error, code, prefix):
        from fillgeo import errors, isoperim

        def sweep(*args):
            raise getattr(errors, error)(f"refused in process {os.getpid()}")

        monkeypatch.setattr(isoperim, "verify_prop_3_5", sweep)
        got, out, err = run_cli(SMALL_VERIFY, capsys)
        assert (got, out) == (code, "")
        assert err.startswith(prefix + "refused in process ")
        # the sweep ran in the child, not here
        assert int(err.split()[-1]) != os.getpid()
        assert_no_child_left()

    def test_child_without_a_result_is_an_invariant_failure(self, capsys, monkeypatch,
                                                            two_cpus):
        from fillgeo import isoperim

        parent = os.getpid()

        def sweep(*args):
            if os.getpid() == parent:
                raise AssertionError("the sweeps ran in this process")
            os._exit(0)

        monkeypatch.setattr(isoperim, "verify_lemma_3_2", sweep)
        code, out, err = run_cli(SMALL_VERIFY, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("invariant failure: the verification child exited without a result")
        assert_no_child_left()

    def test_child_is_reaped_when_the_draw_raises(self, capsys, monkeypatch, two_cpus):
        from fillgeo import isoperim
        from fillgeo.errors import ValidationError

        def draw(*args):
            raise ValidationError("no draw")

        monkeypatch.setattr(isoperim, "draw_instances", draw)
        code, out, err = run_cli(SMALL_VERIFY, capsys)
        assert (code, out, err) == (2, "", "error: no draw\n")
        assert_no_child_left()
        # a sweep that raises in the child wins, as it would in process,
        # where the sweeps run first
        monkeypatch.setattr(isoperim, "verify_lemma_3_2", lambda grid: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            cli.main(SMALL_VERIFY)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [
        BlockingIOError(11, "Resource temporarily unavailable"),
        OSError(12, "Cannot allocate memory"),
    ], ids=["process limit", "no memory"])
    def test_failed_fork_runs_the_sweeps_here(self, capsys, monkeypatch, two_cpus, error):
        forked = run_cli(SMALL_VERIFY, capsys)
        pipes = []

        def pipe():
            pipes.append(real_pipe())
            return pipes[-1]

        def fork():
            raise error

        real_pipe = os.pipe
        monkeypatch.setattr(os, "pipe", pipe)
        monkeypatch.setattr(os, "fork", fork)
        assert run_cli(SMALL_VERIFY, capsys) == forked
        # both ends of the pipe are closed
        assert len(pipes) == 1
        for fd in pipes[0]:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert cli._usable_cpus() == 4

    def test_fresh_process_prints_the_pinned_bytes(self):
        # the child adds no output of its own: no stdio flushed twice
        import hashlib

        golden = json.loads(open(os.path.join(DATA_DIR, "cli_digests.json")).read())
        run = subprocess.run(
            [sys.executable, "-m", "fillgeo", "verify", "--all", "--seed", "7"],
            env=fresh_env(), capture_output=True, timeout=120,
        )
        pinned = golden["verify all seed=7 default density"]
        assert run.returncode == pinned["exit"]
        assert hashlib.sha256(run.stdout).hexdigest() == pinned["stdout"]
        assert run.stderr == b""


class TestGluing:
    def test_svg_and_map_emission(self, capsys, tmp_path):
        svg_path = tmp_path / "g2.svg"
        map_path = tmp_path / "g2.json"
        code, out, _ = run_cli(
            [
                "gluing", "--genus", "2",
                "--svg", str(svg_path),
                "--emit-map", str(map_path),
            ],
            capsys,
        )
        assert code == 0
        assert "[PASS] canonical_g2" in out
        svg = svg_path.read_text()
        assert svg.lstrip().startswith("<svg")
        assert "</svg>" in svg
        cmap = surfmap.from_interchange(json.loads(map_path.read_text()))
        report = surfmap.surface_report(cmap)
        assert report["genus"] == 2
        assert report["faces"] == 1

    def test_emitted_map_is_the_one_checked(self, capsys, tmp_path, monkeypatch):
        expected = surfmap.to_interchange(surfmap.build_map(surfmap.canonical_word(5)))
        calls = {"build_map": 0, "canonical_word": 0}
        for name in calls:
            original = getattr(surfmap, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(surfmap, name, counted)
        map_path = tmp_path / "g5.json"
        code, out, _ = run_cli(
            ["gluing", "--genus", "5", "--json", "--emit-map", str(map_path)], capsys
        )
        assert code == 0
        assert json.loads(out)["passed"]
        assert calls == {"build_map": 1, "canonical_word": 1}
        assert json.loads(map_path.read_text()) == expected

    def test_svg_reads_the_word_parsed_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        original = surfmap.canonical_word

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(surfmap, "canonical_word", counted)
        svg_path = tmp_path / "g3.svg"
        code, _, _ = run_cli(
            ["gluing", "--genus", "3", "--svg", str(svg_path), "--emit-map", str(tmp_path / "m")],
            capsys,
        )
        assert code == 0
        assert calls == [3]
        expected = io.StringIO()
        surfmap.gluing_svg(original(3), expected)
        assert svg_path.read_text() == expected.getvalue()

    def test_svg_is_never_held_whole(self, capsys, tmp_path):
        """The picture streams to its file: after a warm-up call, the
        traced peak of gluing --svg stays below the size of the file."""
        svg_path = tmp_path / "g500.svg"
        argv = ["gluing", "--genus", "500", "--svg", str(svg_path)]
        assert run_cli(argv, capsys)[0] == 0
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < svg_path.stat().st_size, (peak, svg_path.stat().st_size)

    def test_genus_fifty_is_fast(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(["gluing", "--genus", "50"], capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "[PASS] canonical_g50" in out
        assert elapsed < 5.0

    def test_genus_zero_is_usage_error(self, capsys):
        code, _, _ = run_cli(["gluing", "--genus", "0"], capsys)
        assert code == 2


class TestReduce:
    def test_canonical_genus_two(self, capsys):
        path = os.path.join(DATA_DIR, "canonical_g2.json")
        code, out, _ = run_cli(["reduce", path, "--genus", "2"], capsys)
        assert code == 0
        assert "[PASS] reduction genus=2 k=1 degrees=[12]" in out
        assert any(line.startswith("step 1:") for line in out.splitlines())

    def test_triangle_fixture_json(self, capsys):
        path = os.path.join(DATA_DIR, "triangle_a.json")
        code, out, _ = run_cli(["reduce", path, "--genus", "2", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(m >= 5 for m in payload["face_degrees"])

    def test_bigon_fixture_rejected(self, capsys):
        path = os.path.join(DATA_DIR, "bigon.json")
        code, _, err = run_cli(["reduce", path, "--genus", "2"], capsys)
        assert code == 2
        assert "bigon" in err

    def test_non_filling_fixture_rejected(self, capsys):
        path = os.path.join(DATA_DIR, "torus_claim.json")
        code, _, err = run_cli(["reduce", path, "--genus", "2"], capsys)
        assert code == 2
        assert "does not fill" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["reduce", "/nonexistent.json", "--genus", "2"], capsys)
        assert code == 2
        assert "cannot read" in err

    def test_garbage_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        # the last nests deeper than the JSON decoder's recursion limit
        for garbage in (b"{not json", b"\xff\xfe{", b"[" * 100_000):
            path.write_bytes(garbage)
            code, _, err = run_cli(["reduce", str(path), "--genus", "2"], capsys)
            assert code == 2
            assert "not valid JSON" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("straight", [["x"], 5])
    def test_malformed_straight_corners(self, capsys, tmp_path, straight):
        with open(os.path.join(DATA_DIR, "canonical_g2.json")) as handle:
            data = json.load(handle)
        data["straight_corners"] = straight
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["reduce", str(path), "--genus", "2"], capsys)
        assert code == 2
        assert out == ""
        assert "malformed map data" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, index, literal", [
        ("dart_count", None, "Infinity"),
        ("sigma", 0, "1e400"),
        ("alpha", 3, "-Infinity"),
    ])
    def test_malformed_non_finite_numbers(self, capsys, tmp_path, field, index, literal):
        # JSON's Infinity and overflowing literals read as float infinity,
        # which int() refuses with OverflowError
        with open(os.path.join(DATA_DIR, "canonical_g2.json")) as handle:
            data = json.load(handle)
        if index is None:
            data[field] = "@"
        else:
            data[field][index] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data).replace('"@"', literal))
        code, out, err = run_cli(["reduce", str(path), "--genus", "2"], capsys)
        assert code == 2
        assert out == ""
        assert "malformed map data" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", ["fractional-alpha", "string-dart-count", "true-in-sigma"])
    def test_malformed_non_integer_numbers(self, capsys, tmp_path, edit):
        # int() would truncate 0.7 and read "12" and true as integers
        with open(os.path.join(DATA_DIR, "canonical_g2.json")) as handle:
            data = json.load(handle)
        if edit == "fractional-alpha":
            data["alpha"] = [x + 0.7 for x in data["alpha"]]
        elif edit == "string-dart-count":
            data["dart_count"] = str(data["dart_count"])
        else:
            data["sigma"][data["sigma"].index(1)] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["reduce", str(path), "--genus", "2"], capsys)
        assert code == 2
        assert out == ""
        assert "malformed map data" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["minlen", "--genus", "2", "--out"],
    ["gluing", "--genus", "2", "--svg"],
    ["gluing", "--genus", "2", "--emit-map"],
], ids=["minlen-out", "gluing-svg", "gluing-emit-map"])
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out"
    code, out, err = run_cli(argv + [str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output file:")
    assert len(err.splitlines()) == 1


def test_repeated_calls_leave_no_parser_garbage(capsys):
    # the parser is built once: a later call leaves no argparse objects
    # in reference cycles for the cyclic collector
    argv = ["reduce", os.path.join(DATA_DIR, "canonical_g2.json"), "--genus", "2"]
    assert cli.main(argv) == 0
    gc.collect()
    flags, kept = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert cli.main(argv) == 0
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage[kept:]
                if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        del gc.garbage[kept:]
    capsys.readouterr()
    assert left == []


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 2


def fresh_env():
    """The environment of a fresh interpreter that imports this fillgeo."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def fresh_modules(code):
    """The names in sys.modules after code runs in a fresh interpreter;
    code prints nothing, or its output is read as module names too."""
    return set(subprocess.run(
        [sys.executable, "-c", code + "print(' '.join(sys.modules))"],
        env=fresh_env(), capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split())


def test_closed_stdout_exits_quietly():
    # about 1.4 MB of rows, far more than a pipe holds: the reader takes
    # one line and closes the pipe while minlen is still writing
    proc = subprocess.Popen(
        [sys.executable, "-m", "fillgeo", "minlen", "--genus", "2..20000"],
        env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"# genus")
    assert b"Traceback" not in err
    assert b"Exception ignored" not in err


def test_import_loads_only_polygeom():
    # minlen needs only polygeom; isoperim, reducer and surfmap load with
    # the subcommands that use them, so start-up does not compile them;
    # nor does it load the stdlib modules that minlen does not need
    loaded = fresh_modules("import sys, fillgeo.cli; ")
    added = loaded - fresh_modules("import sys; ")
    assert "fillgeo.polygeom" in loaded
    for name in ("fillgeo.isoperim", "fillgeo.reducer", "fillgeo.surfmap"):
        assert name not in loaded
    for name in ("dataclasses", "inspect", "json", "typing"):
        assert name not in added


@pytest.mark.parametrize("argv", [
    ["minlen", "--genus", "2", "--json"],
    ["polygon", "--n", "5", "--area", "5", "--json"],
    ["verify", "example312"],
    ["gluing", "--genus", "2", "--json"],
    ["reduce", "canonical_g2.json", "--genus", "2", "--json"],
], ids=" ".join)
def test_json_output_loads_no_dataclasses(argv):
    # json_text writes the JSON, and every record is a named tuple or a
    # slotted class; the output is captured so that stdout holds module
    # names only.  A map file is read from tests/data
    argv = [os.path.abspath(os.path.join(DATA_DIR, a)) if a.endswith(".json") else a
            for a in argv]
    code = (
        "import contextlib, io, sys\nfrom fillgeo import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    loaded = fresh_modules(code)
    assert "fillgeo.report" in loaded
    assert "dataclasses" not in loaded
