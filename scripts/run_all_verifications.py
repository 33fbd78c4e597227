#!/usr/bin/env python3
"""Run every verification at full density and print one report per check.

Covers, in order: the arbitrary-precision length oracle (g = 2..10 at
50 digits, the source of the frozen constants in the tests), the full
sweep and randomized suites, the canonical gluings for g = 2..50, the
reduction of every map fixture in tests/data at its own genus (and the
rejection of the two invalid ones), build_map's refusal of a gluing word
with a parallel side pair, which would make a non-orientable surface,
and the large-genus kissing ratio (which is below 1 at the sampled
genera; see kissing_threshold.py).

Exit code 0 when every check that is supposed to pass passes.

Oracle recipe: with mpmath at dps=50,
    L(g) = (8g-4) * acosh(sqrt(2) * cos(pi/(8g-4)))
rounded to the printed digits.  The values frozen in the test suite
were produced exactly this way.
"""

import json
import math
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fillgeo import isoperim, polygeom, reducer, surfmap, tolerances as tol
from fillgeo.errors import ValidationError

DATA_DIR = ROOT / "tests" / "data"
# map fixtures that validate_input must refuse; every other map fixture
# is reduced at its own genus field
REJECTED = ("bigon.json", "torus_claim.json")
# a gluing that keeps some side pairs unreversed: build_map refuses it,
# as validate_input refuses the REJECTED fixtures
NON_ORIENTABLE = "a6 a3 a1 a4 a6' a3' a5 a1 a2 a5' a4' a2'"


def oracle_section():
    try:
        import mpmath as mp
    except ImportError:
        print("mpmath not installed; skipping the oracle recomputation")
        return True
    mp.mp.dps = 50
    ok = True
    print("# length oracle (mpmath dps=50) vs float implementation")
    for g in range(2, 11):
        n = 8 * g - 4
        exact = n * mp.acosh(mp.sqrt(2) * mp.cos(mp.pi / n))
        got = polygeom.min_filling_length(g)
        rel = abs(got - float(exact)) / float(exact)
        ok = ok and rel <= tol.LENGTH_REL_TOL
        print(f"  g={g}: oracle {mp.nstr(exact, 21)}  float {got!r}  "
              f"rel err {rel:.2e}")
    return ok


def timed_check(check, *args):
    """Run one check, print its summary and wall time; whether it passed."""
    start = time.perf_counter()
    report = check(*args)
    print(f"  {report.summary()}  {time.perf_counter() - start:.3f}s")
    return report.passed


def sweep_section():
    print("# sweeps and randomized suites (full density)")
    checks = [(isoperim.verify_lemma_3_2,)]
    lemma_3_3_ns = (*range(4, 21), 64, 10**3, 10**6, 10**9)
    checks += [(isoperim.verify_lemma_3_3, n) for n in lemma_3_3_ns]
    checks += [(isoperim.verify_lemma_3_4, n) for n in (7, 8, 9, 10, 30)]
    checks += [(isoperim.verify_prop_3_5,), (isoperim.verify_prop_3_6,)]
    passed = [timed_check(*check) for check in checks]
    start = time.perf_counter()
    draw = isoperim.draw_instances(10000, seed=0)
    print(f"  draw_instances(10000, seed=0), shared by the next two: "
          f"{time.perf_counter() - start:.3f}s")
    passed.append(timed_check(isoperim.verify_theorem_3_1, draw))
    passed.append(timed_check(isoperim.verify_merge_properties, draw))
    passed.append(timed_check(isoperim.verify_example_3_12))
    return all(passed)


def gluing_section():
    print("# canonical gluings g=2..50")
    start = time.perf_counter()
    reports = [surfmap.verify_canonical(g) for g in range(2, 51)]
    elapsed = time.perf_counter() - start
    bad = [r.check_id for r in reports if not r.passed]
    print(f"  {len(reports)} genera verified in {elapsed:.3f}s, failures {bad}")
    return not bad


def refused(name, check, *args):
    """Whether check(*args) refuses its input, saying so."""
    try:
        check(*args)
    except ValidationError as err:
        print(f"  {name}: rejected ({err})")
        return True
    print(f"  {name}: NOT rejected")
    return False


def reducer_section():
    print("# reduction fixture corpus")
    ok = True
    for path in sorted(DATA_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        if "genus" not in data:
            continue
        if path.name in REJECTED:
            ok = refused(path.name, reducer.validate_input, data, data["genus"]) and ok
            continue
        cert = reducer.reduce(reducer.validate_input(data, data["genus"]))
        print(f"  {path.name}: {cert.summary()}")
        ok = ok and cert.passed
    word = NON_ORIENTABLE.split()
    return refused(f"non-orientable {NON_ORIENTABLE}", surfmap.build_map, word) and ok


def kissing_section():
    print("# large-genus kissing ratio (documented to be below 1 here)")
    for g in (10**4, 10**5, 10**6):
        lhs = polygeom.kissing_lower_bound(g, 2.0 * math.log(g) + 2.409)
        rhs = 3.525 * g / math.log(g)
        print(f"  g=10^{round(math.log10(g))}: lhs/rhs = {lhs / rhs:.10f}")
    return True


def main():
    sections = [
        oracle_section, sweep_section, gluing_section,
        reducer_section, kissing_section,
    ]
    ok = True
    start = time.perf_counter()
    for section in sections:
        ok = section() and ok
    elapsed = time.perf_counter() - start
    print(f"total {elapsed:.1f}s: {'all checks passed' if ok else 'FAILURES above'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
