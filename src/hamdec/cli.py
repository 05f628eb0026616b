"""Command-line interface.

Exit codes, relied on by scripts:

* 0: success (admissible / constructed / verified / path found / clean sweep)
* 1: negative result (not admissible, verification failed)
* 2: input error (unparseable flags or files, bad sizes, bad ranges)
* 3: admissible but no known construction family applies
* 4: search exhausted (no path) or sweep found failing multisets
* 70: internal error, an unexpected exception (sysexits EX_SOFTWARE); one
  ``internal error: <type>: <message>`` line goes to stderr
* 141: stdout was closed before the output was written (128 + SIGPIPE, as a
  shell reports a pipe reader that left early); an ``--out`` file is written
  first, so it is complete

Code 5 is reserved for a search node budget.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .admissibility import analyze
from .buratti import find_path, sweep
from .constructions import construct_with_family
from .document import load_certificate, to_json
from .errors import (
    BadMultisetSize,
    HamdecError,
    NotAdmissible,
    NotPrime,
    RepeatedVertex,
    Unsupported,
    WindowTooLarge,
    WindowTooSmall,
)
from .model import ConnectionSet
from .figures import FORMATS, render_figure
from .verifier import smallest_window_periods, verify_certificate, window_oracle

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_EXHAUSTED = 4
EXIT_INTERNAL = 70
EXIT_PIPE = 141


class UsageError(Exception):
    pass


def _parse_set(text: str) -> ConnectionSet:
    try:
        entries = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse connection set {text!r}: {exc}") from exc
    return ConnectionSet(entries)


def _parse_lengths(text: str) -> dict[int, int]:
    """Comma-separated lengths; 'vxn' or 'v×n' repeats v n times.

    Returns the multiplicity of each length, in order of first occurrence,
    without expanding the repeats: ``LengthMultiset`` then checks the
    lengths and their total against the modulus before anything is built.
    """
    counts: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        m = re.fullmatch(r"(\d+)\s*[x×]\s*(\d+)", part)
        if m:
            length, count = int(m.group(1)), int(m.group(2))
        else:
            try:
                length, count = int(part), 1
            except ValueError as exc:
                raise UsageError(f"cannot parse length entry {part!r}") from exc
        if count:
            counts[length] = counts.get(length, 0) + count
    if not counts:
        raise UsageError("length multiset is empty")
    return counts


_RANGE = r"(-?\d+)\.\.(-?\d+)"


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(_RANGE, text.strip())
    if not m:
        raise UsageError(f"cannot parse range {text!r}, expected like 0..12")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo >= hi:
        raise UsageError(f"range {text!r} is empty")
    return lo, hi


def _window_periods(text: str) -> int | str:
    """``--window-periods``: at least 3 periods, or ``auto`` for the smallest window that works.

    A count below 3 is refused here, before the exact check runs.
    """
    if text == "auto":
        return text
    try:
        periods = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {text!r}") from None
    if periods < 3:
        raise argparse.ArgumentTypeError(f"periods must be at least 3, got {text!r}")
    return periods


def _write_out(path: str, text: str) -> None:
    """Write an ``--out`` file; a path that cannot be written is an input error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def cmd_check(args) -> int:
    s = _parse_set(args.set)
    report = analyze(s)
    print(f"S+ = {s}")
    print(f"gcd = {report.gcd}  (connected components: {report.component_count})")
    total = sum(s.s_plus)
    print(f"parity: sum(S+) = {total}, |S+| = {len(s.s_plus)} -> "
          f"{'ok' if report.parity_ok else 'violated'}")
    print(f"admissible: {'yes' if report.admissible else 'no'}")
    return EXIT_OK if report.admissible else EXIT_FAIL


def cmd_construct(args) -> int:
    s = _parse_set(args.set)
    try:
        family, cert = construct_with_family(s)
    except NotAdmissible as exc:
        print(f"not admissible: {exc}")
        return EXIT_FAIL
    except Unsupported as exc:
        print(f"unsupported: {exc}")
        return EXIT_UNSUPPORTED
    # The file is written first: a write error then prints nothing, and a
    # stdout closed early cannot stop the write.
    if args.out:
        _write_out(args.out, to_json(cert, provenance=f"{family}(S+={cert.connection_set})"))
    print(f"family:  {family}")
    print(f"S+:      {cert.connection_set}")
    print(f"period:  {cert.period}")
    print(f"starter: {list(cert.starter.vertices)}")
    print(f"offsets: {{{', '.join(map(str, cert.offsets))}}}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        _, cert = load_certificate(args.cert)
    except RepeatedVertex as exc:  # a starter that is not a path: the one rejection found on load
        print(f"exact check: rejected ({exc})")
        print("failures: PathBroken")
        return EXIT_FAIL

    report = verify_certificate(cert)
    print(f"exact check: {'accepted' if report.accepted else 'rejected'}")
    if report.failures:
        print(f"failures: {', '.join(report.failures)}")
    auto = args.window_periods == "auto"
    periods = smallest_window_periods(cert) if auto else args.window_periods
    try:
        check = window_oracle(cert, periods)
    except (WindowTooSmall, WindowTooLarge) as exc:
        print(f"window oracle: not run ({exc})" if auto else f"window oracle: {exc}")
        return EXIT_USAGE
    print(f"window oracle ({periods} periods): "
          f"{'accepted' if check.accepted else 'rejected'}")
    if check.failure:
        print(f"window failure: {check.failure}")
    return EXIT_OK if report.accepted and check.accepted else EXIT_FAIL


def cmd_buratti(args) -> int:
    if (args.sweep_prime is None) == (args.k is None):
        raise UsageError("use either --k with --lengths, or --sweep-prime")

    if args.k is not None:
        if args.lengths is None:
            raise UsageError("--k requires --lengths")
        lengths = _parse_lengths(args.lengths)
        try:
            outcome = find_path(args.k, lengths)
        except BadMultisetSize as exc:
            print(f"bad multiset: {exc}")
            return EXIT_USAGE
        if outcome.found:
            print(f"found: [{', '.join(map(str, outcome.witness))}]  "
                  f"(nodes expanded: {outcome.nodes_expanded})")
            return EXIT_OK
        print(f"exhausted: no path realizes the multiset  "
              f"(nodes expanded: {outcome.nodes_expanded})")
        return EXIT_EXHAUSTED

    try:
        report = sweep(args.sweep_prime, sample=args.sample, seed=args.seed, jobs=args.jobs)
    except NotPrime as exc:
        print(f"bad modulus: {exc}")
        return EXIT_USAGE
    for lengths, outcome in report.entries:
        witness = ",".join(map(str, outcome.witness)) if outcome.found else "-"
        print(f"{','.join(map(str, lengths))}\t{outcome.status}\t{witness}\t"
              f"{outcome.nodes_expanded}")
    scope = f"{len(report.entries)} of {report.total}" if report.sampled else str(report.total)
    print(f"sweep p={report.p}: {scope} multisets, {len(report.failures)} failures, "
          f"{report.elapsed:.1f}s")
    return EXIT_OK if report.clean else EXIT_EXHAUSTED


def cmd_figure(args) -> int:
    _, cert = load_certificate(args.cert)
    lo, hi = _parse_range(args.range)
    text = render_figure(cert, lo, hi, args.format)
    if args.out:
        _write_out(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse drops a failed help write, or leaves it to the exit flush: write
    # and flush here, so that ``main`` exits 141 on a closed stdout after
    # ``--help`` too.  Subparsers inherit the class.
    def print_help(self, file=None):
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="hamdec",
        description="Hamilton decompositions of infinite circulant graphs: "
                    "construct, verify, search, draw.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="test the necessary conditions for a connection set")
    p_check.add_argument("--set", required=True, metavar="S",
                         help="positive generators, comma separated, e.g. '1,2,4'")
    p_check.set_defaults(func=cmd_check)

    p_construct = sub.add_parser("construct", help="build and self-verify a certificate")
    p_construct.add_argument("--set", required=True, metavar="S")
    p_construct.add_argument("--out", metavar="FILE", help="write the certificate as JSON")
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser("verify", help="verify a certificate file exactly and by window")
    p_verify.add_argument("--cert", required=True, metavar="FILE")
    p_verify.add_argument("--window-periods", type=_window_periods, default=5, metavar="N|auto")
    p_verify.set_defaults(func=cmd_verify)

    p_buratti = sub.add_parser(
        "buratti", help="search for length-constrained Hamilton paths on Z_k")
    p_buratti.add_argument("--k", type=int, metavar="K")
    p_buratti.add_argument("--lengths", metavar="L",
                           help="multiset, e.g. '1,1,2,2' or '3x8'")
    p_buratti.add_argument("--sweep-prime", type=int, metavar="P",
                           help="run every multiset for an odd prime")
    p_buratti.add_argument("--sample", type=int, metavar="N",
                           help="sample N multisets instead of sweeping all")
    p_buratti.add_argument("--seed", type=int, default=0, metavar="SEED")
    p_buratti.add_argument("--jobs", type=int, default=1, metavar="J")
    p_buratti.set_defaults(func=cmd_buratti)

    p_figure = sub.add_parser("figure", help="emit an arc diagram for a certificate")
    p_figure.add_argument("--cert", required=True, metavar="FILE")
    p_figure.add_argument("--range", required=True, metavar="A..B")
    p_figure.add_argument("--format", choices=FORMATS, default="svg")
    p_figure.add_argument("--out", metavar="FILE")
    p_figure.set_defaults(func=cmd_figure)

    return parser


def _join_negative_range(argv: list[str]) -> list[str]:
    """Join ``--range -48..96`` into ``--range=-48..96``.

    argparse reads a separate value that starts with '-' (other than a plain
    negative number) as a flag, and would reject the range as missing.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--range" and arg.startswith("-") and re.fullmatch(_RANGE, arg):
            out[-1] = f"--range={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_join_negative_range(argv))
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so a closed stdout fails here
        return code
    except BrokenPipeError:
        # Point stdout at the null device so the interpreter's exit flush of
        # what is still buffered cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (UsageError, ValueError, HamdecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, never a negative result: keep it off exit code 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
