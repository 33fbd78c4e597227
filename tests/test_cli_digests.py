"""CLI output stays byte-identical on a fixed set of commands.

``tests/data/cli_digests.json`` maps each command to the sha256 of its
stdout and stderr and its exit code; the ``gluing`` commands that write
an SVG picture or a map interchange file also pin the sha256 of each
file.  The commands cover the extremal-length table, single polygons
(including the degenerate right-angled square and a non-integer side
count), the verification suite at two seeds, at an odd density and at
its default density, lemma 3.3 at n = 64, the documented lemma 3.4
violation, the canonical gluings up to genus 40,
the three commands of the benchmark's verify-suite workload as it runs
them, the reduction certificate of a canonical map and of a map on which
the split rule fires, and the messages of domain errors.
After an intended change of output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from fillgeo import cli

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "cli_digests.json"
RIGHT_ANGLE = "1.5707963267948966"
VERIFY = ("verify", "--all", "--samples", "1000", "--steps", "10", "--count", "300")


def _commands():
    """(name, argv) for every pinned command; ``{dir}`` is a temporary directory."""
    commands = []
    for fmt in ((), ("--json",)):
        suffix = "".join(" " + f for f in fmt)
        commands.append((f"minlen 2..12{suffix}", ("minlen", "--genus", "2..12", *fmt)))
        for n, given, value in (
            ("12", "--theta", RIGHT_ANGLE),
            ("4", "--theta", RIGHT_ANGLE),
            ("5", "--area", "5"),
            ("7.5", "--area", "3"),
        ):
            commands.append((
                f"polygon n={n} {given[2:]}={value}{suffix}",
                ("polygon", "--n", n, given, value, *fmt),
            ))
        for seed in ("0", "7"):
            commands.append((f"verify all seed={seed}{suffix}", (*VERIFY, "--seed", seed, *fmt)))
    # the sweeps at their default density, which the benchmark runs
    commands.append((
        "verify all seed=0 --json default density", ("verify", "--all", "--seed", "0", "--json")
    ))
    # an odd density, so the prop 3.6 grid has rows at and below the x-cap
    commands.append((
        "verify all seed=1 steps=13 samples=777 --json",
        ("verify", "--all", "--seed", "1", "--steps", "13", "--samples", "777", "--json"),
    ))
    commands.append((
        "verify lemma33 n=64 samples=3001 --json",
        ("verify", "lemma33", "--n", "64", "--samples", "3001", "--json"),
    ))
    commands.append(("verify lemma34 n=30", ("verify", "lemma34", "--n", "30")))
    for g in range(2, 7):
        commands.append((f"gluing g={g} --json", ("gluing", "--genus", str(g), "--json")))
    commands.append((
        "gluing g=3 files",
        ("gluing", "--genus", "3", "--json", "--svg", "{dir}/g3.svg",
         "--emit-map", "{dir}/g3.json"),
    ))
    # genus 40 carries 38 label blocks past the g = 3 word
    commands.append((
        "gluing g=40 --json map",
        ("gluing", "--genus", "40", "--json", "--emit-map", "{dir}/g40.json"),
    ))
    commands.append(("gluing g=40 svg", ("gluing", "--genus", "40", "--svg", "{dir}/g40.svg")))
    # the benchmark's verify-suite commands, as it runs them
    commands.append(("verify all seed=7 default density", ("verify", "--all", "--seed", "7")))
    commands.append((
        "gluing g=8000 --json map",
        ("gluing", "--genus", "8000", "--emit-map", "{dir}/m.json", "--json"),
    ))
    commands.append((
        "gluing g=2000 svg", ("gluing", "--genus", "2000", "--svg", "{dir}/g.svg")
    ))
    # the reproducer is one on which the split rule fires
    for fixture in ("canonical_g3", "reproducer_6-6-4-4@690"):
        for fmt in ((), ("--json",)):
            suffix = "".join(" " + f for f in fmt)
            commands.append((
                f"reduce {fixture}{suffix}",
                ("reduce", str(DATA / f"{fixture}.json"), "--genus", "3", *fmt),
            ))
    commands.append(("error polygon n=2", ("polygon", "--n", "2", "--area", "1")))
    commands.append(("error polygon area", ("polygon", "--n", "5", "--area", "100")))
    commands.append(("error polygon theta", ("polygon", "--n", "5", "--theta", "3")))
    return commands


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        argv = [arg.replace("{dir}", workdir) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        # text output names the files it wrote, under a fresh directory each run
        stdout = out.getvalue().replace(workdir, "{dir}")
        result = {"exit": code, "stdout": _sha(stdout), "stderr": _sha(err.getvalue())}
        for name in sorted(p.name for p in pathlib.Path(workdir).iterdir()):
            result[f"file:{name}"] = _sha((pathlib.Path(workdir) / name).read_bytes())
    return result


def digests() -> dict:
    return {name: _run(argv) for name, argv in _commands()}


def test_cli_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    current = digests()
    assert current.keys() == golden.keys()
    changed = sorted(name for name in golden if current[name] != golden[name])
    assert not changed, f"CLI output changed for {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
