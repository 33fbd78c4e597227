"""Command line front end.

Five subcommands: ``minlen`` tabulates the extremal filling-geodesic
length by genus, ``polygon`` evaluates one regular hyperbolic polygon,
``verify`` runs the numerical verification sweeps, ``gluing`` builds
and checks the canonical gluing (optionally emitting an SVG picture
or the map interchange file), and ``reduce`` runs the cutting-curve
reduction on a map file and prints the certificate.

Exit codes: 0 when every invoked check passes, 1 when a check ran and
failed (or an internal invariant broke), 2 for usage and input errors,
an output file or a stdout that cannot be written among them, and 141
(a shell's code for SIGPIPE), printing nothing, when stdout closes
early (``| head``).
All numeric output is printed with repr so identical flags reproduce
identical bytes.
"""

import argparse
import functools
import os
import sys

# isoperim, reducer, surfmap and report, whose json_text writes all JSON,
# are imported where used: start-up and ``minlen`` without --json load none
from . import polygeom
from .errors import DomainError, InternalInvariantError, ValidationError


VERIFY_SELECTORS = (
    "all",
    "lemma32",
    "lemma33",
    "lemma34",
    "prop35",
    "prop36",
    "thm31",
    "example312",
)


def _at_least(what: str, least: int):
    """The argparse type of an integer that is at least least, named what
    in its messages."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"{what} must be at least {least}, got {value}")
        return value

    return parse


_genus = _at_least("genus", 2)
# no instance drawn would pass vacuously
_count = _at_least("instance count", 1)


def _genus_range(text: str) -> tuple:
    """Parse '3' or '2..5' into an inclusive tuple of genera."""
    lo, sep, hi = text.partition("..")
    try:
        first = int(lo)
        last = int(hi) if sep else first
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"genus must be an integer or a range like 2..5, got {text!r}"
        )
    if first < 2:
        raise argparse.ArgumentTypeError(f"genus must be at least 2, got {first}")
    if last < first:
        raise argparse.ArgumentTypeError(f"empty genus range {text!r}")
    return tuple(range(first, last + 1))


def _write(out_path, write) -> None:
    """Pass the file out_path, opened for text, to write; a file that
    cannot be written is a usage error."""
    try:
        with open(out_path, "w") as handle:
            write(handle)
    except OSError as err:
        raise DomainError(f"cannot write output file: {err}")


def _emit(text: str, out_path) -> None:
    """Write text, ending in a newline, to the file out_path or to stdout."""
    # the newline is written on its own: text + "\n" would copy the whole
    # text, 1.4 MB for the genus-8000 --emit-map file
    lines = (text, "" if text.endswith("\n") else "\n")
    if out_path:
        _write(out_path, lambda handle: handle.writelines(lines))
        return
    try:
        sys.stdout.writelines(lines)
        sys.stdout.flush()
    except OSError as err:
        # point stdout at devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(err, BrokenPipeError):
            raise
        raise DomainError(f"cannot write to stdout: {err}")


def cmd_minlen(args) -> int:
    """One row per genus: g, side count, side, perimeter, half-perimeter."""
    rows = [polygeom.extremal_report(g) for g in args.genus]
    if args.json:
        from .report import json_text

        text = json_text([r.as_dict() for r in rows])
    else:
        lines = ["# genus  sides  side  perimeter  min_length"]
        for rep in rows:
            lines.append(
                f"{rep.genus}  {8 * rep.genus - 4}  {rep.polygon_side!r}  "
                f"{rep.polygon_perimeter!r}  {rep.min_filling_length!r}"
            )
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0


def cmd_polygon(args) -> int:
    if args.theta is not None:
        spec = polygeom.RegularPolygonSpec.from_angle(args.n, args.theta)
    else:
        spec = polygeom.RegularPolygonSpec.from_area(args.n, args.area)
    data = spec.as_dict()
    if args.json:
        from .report import json_text

        text = json_text(data)
    else:
        text = "\n".join(f"{key}={data[key]!r}" for key in
                         ("n", "theta", "area", "side", "perimeter", "circumradius"))
    _emit(text, args.out)
    return 0


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _alongside(first, second, fork: bool):
    """first() + second(), with first() in a forked child while this
    process runs second() where that can help: fork is true, os.fork
    exists and this process may use two CPUs.  Otherwise, and should the
    fork fail (a process or memory limit), both run here, in order.

    The child pickles its outcome through a pipe and leaves through
    os._exit, so the stdio buffers it inherited are never flushed twice.
    The child is always reaped.  Should both raise, first()'s exception
    wins, as it would in process; a child that exits without a result
    raises InternalInvariantError.
    """
    pid = None
    if fork and hasattr(os, "fork") and _usable_cpus() >= 2:
        import pickle

        readable, writable = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(readable)
            os.close(writable)
    if pid is None:
        return first() + second()
    if pid == 0:
        try:
            os.close(readable)
            try:
                outcome = (True, first())
            except BaseException as err:
                outcome = (False, err)
            with open(writable, "wb") as pipe:
                pickle.dump(outcome, pipe)
        finally:
            os._exit(0)
    os.close(writable)
    try:
        later = second()
    finally:
        try:
            # closing the pipe first frees a child blocked on writing to it
            with open(readable, "rb") as pipe:
                data = pipe.read()
        finally:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # SIGCHLD is ignored, so the kernel has reaped the child
        try:
            done, value = pickle.loads(data)
        except Exception:
            raise InternalInvariantError("the verification child exited without a result") from None
        if not done:
            raise value
    return value + later


def _verify_reports(which: str, args) -> list:
    from . import isoperim

    # flags left unset keep GridSpec's defaults
    density = {"steps": args.steps, "samples": args.samples}
    grid = isoperim.GridSpec(**{k: v for k, v in density.items() if v is not None})

    def wanted(name):
        return which in ("all", name)

    # each selected per-n sweep refuses a bad --n before any sweep runs
    least = {"lemma33": isoperim._LEMMA_3_3_MIN_N, "lemma34": isoperim._LEMMA_3_4_MIN_N}
    for name in filter(wanted, least if args.n is not None else ()):
        isoperim._check_n(args.n, least[name])

    def sweeps():
        reports = []
        if wanted("lemma32"):
            reports.append(isoperim.verify_lemma_3_2(grid))
        if wanted("lemma33"):
            ns = (args.n,) if args.n is not None else range(least["lemma33"], 21)
            for n in ns:
                reports.append(isoperim.verify_lemma_3_3(n, grid))
        if wanted("lemma34"):
            ns = (args.n,) if args.n is not None else range(7, 11)
            for n in ns:
                reports.append(isoperim.verify_lemma_3_4(n, grid))
        if wanted("prop35"):
            reports.append(isoperim.verify_prop_3_5(grid))
        if wanted("prop36"):
            reports.append(isoperim.verify_prop_3_6(grid))
        return reports

    def suites():
        reports = []
        if wanted("thm31"):
            # one draw serves both random suites
            draw = isoperim.draw_instances(args.count, args.seed)
            reports.append(isoperim.verify_theorem_3_1(draw))
            if which == "all":
                reports.append(isoperim.verify_merge_properties(draw))
        if wanted("example312"):
            reports.append(isoperim.verify_example_3_12())
        return reports

    # the sweeps and the random suites share no state: under --all the
    # sweeps run in a child while this process runs the suites
    return _alongside(sweeps, suites, fork=which == "all")


def cmd_verify(args) -> int:
    which = "all" if args.all else args.which
    reports = _verify_reports(which, args)
    if args.json:
        from .report import json_text

        text = json_text([r.as_dict() for r in reports])
    else:
        lines = []
        for rep in reports:
            lines.append(rep.summary())
            if rep.check_id == "example_3_12":
                lhs = rep.details["sum_plus_half"]
                rhs = rep.details["p5_of_5"]
                lines.append(f"  lhs = P_6(4.99) + P_3(0.01) + 1/2 = {lhs!r}")
                lines.append(f"  rhs = P_5(5) = {rhs!r}")
            if not rep.passed:
                for detail_line in rep.text().splitlines():
                    lines.append("  " + detail_line)
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_gluing(args) -> int:
    from . import surfmap
    from .report import json_text

    word = surfmap.canonical_word(args.genus)
    cmap = surfmap.build_map(word)
    report = surfmap.canonical_report(cmap, args.genus)
    lines = []
    if args.svg:
        _write(args.svg, lambda handle: surfmap.gluing_svg(word, handle))
        lines.append(f"svg written to {args.svg}")
    if args.emit_map:
        _emit(json_text(surfmap.to_interchange(cmap)), args.emit_map)
        lines.append(f"map written to {args.emit_map}")
    if args.json:
        text = json_text(report.as_dict())
    else:
        lines.append(report.summary())
        if not report.passed:
            for detail_line in report.text().splitlines():
                lines.append("  " + detail_line)
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0 if report.passed else 1


def cmd_reduce(args) -> int:
    import json

    from . import reducer

    try:
        with open(args.mapfile, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise DomainError(f"cannot read map file: {err}")
    except (ValueError, RecursionError) as err:
        # a JSON syntax error, bytes that are not UTF-8, or nesting
        # deeper than the decoder's recursion limit
        raise ValidationError(f"map file is not valid JSON: {err}")
    filling = reducer.validate_input(data, args.genus)
    cert = reducer.reduce(filling)
    if args.json:
        text = cert.to_json()
    else:
        lines = list(cert.steps)
        lines.append(cert.summary())
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0 if cert.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: a parser holds reference
    cycles, which each call would otherwise leave to the cyclic
    garbage collector."""
    parser = argparse.ArgumentParser(
        prog="fillgeo",
        description="Extremal filling geodesics: lengths, verification sweeps, "
        "canonical gluings and cutting-curve reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_minlen = sub.add_parser(
        "minlen", help="tabulate the minimal filling-geodesic length by genus"
    )
    p_minlen.add_argument(
        "--genus", type=_genus_range, required=True,
        help="single genus (2) or inclusive range (2..5)",
    )
    p_minlen.set_defaults(func=cmd_minlen)

    p_poly = sub.add_parser(
        "polygon", help="evaluate one regular hyperbolic polygon"
    )
    p_poly.add_argument("--n", type=float, required=True, help="side count")
    given = p_poly.add_mutually_exclusive_group(required=True)
    given.add_argument("--theta", type=float, help="interior angle in radians")
    given.add_argument("--area", type=float, help="hyperbolic area")
    p_poly.set_defaults(func=cmd_polygon)

    p_verify = sub.add_parser("verify", help="run the verification sweeps")
    p_verify.add_argument(
        "which", nargs="?", default="all", choices=VERIFY_SELECTORS,
        help="which check to run (default: all)",
    )
    p_verify.add_argument("--all", action="store_true", help="run every check")
    p_verify.add_argument("--n", type=int, default=None,
                          help="restrict the per-n sweeps to one side count")
    p_verify.add_argument("--samples", type=int, default=None,
                          help="sample count for the 1d sweeps")
    p_verify.add_argument("--steps", type=int, default=None,
                          help="grid steps per axis for the 2d sweeps")
    p_verify.add_argument("--count", type=_count, default=10000,
                          help="random instance count")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="random seed for the instance suite")
    p_verify.set_defaults(func=cmd_verify)

    p_glue = sub.add_parser(
        "gluing", help="build and verify the canonical genus-g gluing"
    )
    p_glue.add_argument("--genus", type=_genus, required=True)
    p_glue.add_argument("--svg", default=None, help="write an SVG picture here")
    p_glue.add_argument("--emit-map", default=None,
                        help="write the map interchange file here")
    p_glue.set_defaults(func=cmd_gluing)

    p_reduce = sub.add_parser(
        "reduce", help="reduce a filling multi-curve map, print the certificate"
    )
    p_reduce.add_argument("mapfile", help="map interchange JSON file")
    p_reduce.add_argument("--genus", type=_genus, required=True)
    p_reduce.set_defaults(func=cmd_reduce)

    # after each subcommand's own arguments, as its usage line lists them
    for p_sub in sub.choices.values():
        p_sub.add_argument("--json", action="store_true")
        p_sub.add_argument("--out", default=None, help="write output to this file")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # a usage error or --help, which argparse has already printed
        return exc.code
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout closed early (| head): _emit has pointed it at devnull
        return 141
    except (DomainError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InternalInvariantError as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
