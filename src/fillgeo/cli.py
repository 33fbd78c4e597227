"""Command line front end.

Five subcommands: ``minlen`` tabulates the extremal filling-geodesic
length by genus, ``polygon`` evaluates one regular hyperbolic polygon,
``verify`` runs the numerical verification sweeps, ``gluing`` builds
and checks the canonical gluing (optionally emitting an SVG picture
or the map interchange file), and ``reduce`` runs the cutting-curve
reduction on a map file and prints the certificate.

Each ``cmd_*`` returns ``(to_json, lines, code)``: a callable that gives
its JSON text, its text lines and its exit code.  ``main`` alone reads
--json and --out and hands the one or the other to ``_emit``, which
writes stdout, the help included, and the --out and --emit-map files.

Exit codes: 0 when every invoked check passes, 1 when a check ran and
failed (or an internal invariant broke), 2 for usage and input errors,
an output file, a stdout or help that cannot be written among them, and
141 (a shell's code for SIGPIPE), printing nothing, when stdout closes
early (``| head``).  A stderr that cannot be written loses the error
message but not the exit code.
All numeric output is printed with repr so identical flags reproduce
identical bytes.
"""

import argparse
import functools
import os
import sys

# isoperim, reducer and surfmap are imported where used, and report, whose
# json_text writes all JSON, by _json: start-up and ``minlen`` load none
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


def _emit(lines, out_path) -> None:
    """Write lines, each followed by a newline, to the file out_path or to
    stdout; every write to stdout, the help's too, goes through here."""
    # each newline is written on its own: line + "\n" would copy the line,
    # 1.4 MB for the genus-8000 --emit-map file
    parts = (part for line in lines for part in (line, "\n"))
    if out_path:
        _write(out_path, lambda handle: handle.writelines(parts))
        return
    try:
        sys.stdout.writelines(parts)
        sys.stdout.flush()
    except OSError as err:
        # point stdout at devnull, so the flush at exit cannot raise again;
        # a stream with no descriptor (a StringIO) has nothing to point
        try:
            fd = sys.stdout.fileno()
        except OSError:
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        if isinstance(err, BrokenPipeError):
            raise
        raise DomainError(f"cannot write to stdout: {err}")


def _json(value) -> str:
    """value as JSON text; fillgeo.report, and json with it, load on first use."""
    from .report import json_text

    return json_text(value)


def _failure_lines(report) -> list:
    """A failed report's text, each line indented by two spaces; none for
    a report that passed."""
    return [] if report.passed else ["  " + line for line in report.text().splitlines()]


def cmd_minlen(args):
    """One row per genus: g, side count, side, perimeter, half-perimeter."""
    # every row is computed before any is written, so a refused genus prints nothing
    rows = [polygeom.extremal_report(g) for g in args.genus]

    def lines():
        yield "# genus  sides  side  perimeter  min_length"
        for rep in rows:
            yield (
                f"{rep.genus}  {8 * rep.genus - 4}  {rep.polygon_side!r}  "
                f"{rep.polygon_perimeter!r}  {rep.min_filling_length!r}"
            )

    return lambda: _json([r.as_dict() for r in rows]), lines(), 0


def cmd_polygon(args):
    if args.theta is not None:
        spec = polygeom.RegularPolygonSpec.from_angle(args.n, args.theta)
    else:
        spec = polygeom.RegularPolygonSpec.from_area(args.n, args.area)
    data = spec.as_dict()
    lines = [f"{key}={data[key]!r}" for key in
             ("n", "theta", "area", "side", "perimeter", "circumradius")]
    return lambda: _json(data), lines, 0


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


def cmd_verify(args):
    which = "all" if args.all else args.which
    reports = _verify_reports(which, args)

    def lines():
        for rep in reports:
            yield rep.summary()
            if rep.check_id == "example_3_12":
                yield f"  lhs = P_6(4.99) + P_3(0.01) + 1/2 = {rep.details['sum_plus_half']!r}"
                yield f"  rhs = P_5(5) = {rep.details['p5_of_5']!r}"
            yield from _failure_lines(rep)

    code = 0 if all(r.passed for r in reports) else 1
    return lambda: _json([r.as_dict() for r in reports]), lines(), code


def cmd_gluing(args):
    from . import surfmap

    word = surfmap.canonical_word(args.genus)
    cmap = surfmap.build_map(word)
    report = surfmap.canonical_report(cmap, args.genus)
    lines = []
    if args.svg:
        _write(args.svg, lambda handle: surfmap.gluing_svg(word, handle))
        lines.append(f"svg written to {args.svg}")
    if args.emit_map:
        _emit([_json(surfmap.to_interchange(cmap))], args.emit_map)
        lines.append(f"map written to {args.emit_map}")
    lines += [report.summary(), *_failure_lines(report)]
    return lambda: _json(report.as_dict()), lines, 0 if report.passed else 1


def cmd_reduce(args):
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
    return cert.to_json, [*cert.steps, cert.summary()], 0 if cert.passed else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, its subcommands' parsers too, whose help goes
    to stdout through _emit: help that cannot be written is a usage error."""

    def print_help(self, file=None):
        _emit([self.format_help().removesuffix("\n")], None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: a parser holds reference
    cycles, which each call would otherwise leave to the cyclic
    garbage collector."""
    parser = _Parser(
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
        to_json, lines, code = args.func(args)
        _emit([to_json()] if args.json else lines, args.out)
        return code
    except SystemExit as exc:
        # argparse's exit after a usage error or the help, both written
        return exc.code
    except BrokenPipeError:
        # stdout closed early (| head): _emit has pointed it at devnull
        return 141
    except (DomainError, ValidationError) as err:
        message, code = f"error: {err}", 2
    except InternalInvariantError as err:
        message, code = f"invariant failure: {err}", 1
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass  # the message is lost; the exit code still tells what happened
    return code


if __name__ == "__main__":
    raise SystemExit(main())
