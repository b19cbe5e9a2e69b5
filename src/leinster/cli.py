"""Command-line front end.

Subcommands: `classify` for one instance, `search` for family sweeps,
`perfect-plus-one` for the even-perfect prime-power scan, and `verify` for
the formula-versus-oracle invariant suite.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 verification
failure, 4 resource cap exceeded, 130 interrupted (Ctrl-C), 141 stdout
closed early (128 + SIGPIPE, as when piped into `head`; nothing more is
printed).  A sweep writes its JSON records as they come, one write per
chunk of `search.sweep_chunks` (the chunk's kept lines, read from its
columns, with no record object built), so after 130, 141 or an error in
mid-sweep stdout holds a prefix of whole records: on 130, every record of
the chunks finished before the interrupt.  `--table` output is written at
the end, once the column widths are known, from the records of
`search.run_sweep`.  D and the order are printed as exact integers of any
size, in JSON and in `--table` alike.

Only `verify` and `classify --verify` build groups, and only they import the
brute-force oracle and numpy; `classify`, `search` and `perfect-plus-one`
run on the closed forms and load neither.

Run it as `leinster` or `python -m leinster`.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import numtheory, search
from .families import GroupKind
from .search import SweepConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141

# every class by its value, and the two near classes by their first word
_CLASS_ALIASES = {kind.value: kind for kind in GroupKind}
_CLASS_ALIASES.update(quasi=GroupKind.QUASI_LEINSTER, almost=GroupKind.ALMOST_LEINSTER)


# every sweep bound a family declares, in order of first declaration
_BOUND_KEYS = tuple(
    dict.fromkeys(key for family in search.FAMILY.values() for key in family.bounds)
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command line's parser, built once per process, at import: every `main` reuses it."""
    parser = _Parser(prog="leinster", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cls = sub.add_parser("classify", help="classify one family instance")
    cls.add_argument("--family", required=True, choices=search.FAMILIES)
    cls.add_argument(
        "--params", required=True, help="comma-separated integers, e.g. 7,6,3"
    )
    cls.add_argument(
        "--verify",
        action="store_true",
        help="cross-check D against the brute-force oracle when in scope",
    )
    cls.add_argument("--table", action="store_true", help="aligned columns instead of JSON")

    srch = sub.add_parser("search", help="sweep a family parameter space")
    srch.add_argument("family", choices=search.FAMILIES)
    for key in _BOUND_KEYS:
        srch.add_argument("--" + key.replace("_", "-"), type=int)
    srch.add_argument("--r", type=int, help="fix the zm conjugation parameter r")
    srch.add_argument(
        "--paper-mode",
        action="store_true",
        help="zm only: restrict to prime m with n = m - 1",
    )
    srch.add_argument(
        "--class",
        dest="classes",
        help="comma-separated class filter (leinster, quasi-leinster, "
        "almost-leinster, abundant, deficient)",
    )
    srch.add_argument(
        "--dedupe",
        action="store_true",
        help="zm only: keep one parameter triple per isomorphism orbit of r",
    )
    srch.add_argument(
        "--include-edge", action="store_true", help="keep order-1 edge instances"
    )
    srch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and ignored, but must be at least 1: "
        "sweeps run in one process",
    )
    srch.add_argument("--cache", help="append-only resume cache path")
    srch.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET)
    srch.add_argument("--table", action="store_true")

    ppo = sub.add_parser(
        "perfect-plus-one", help="scan even perfect numbers P for P + 1 a prime power"
    )
    ppo.add_argument("--count", type=int, required=True)

    ver = sub.add_parser(
        "verify",
        help="run the formula-versus-oracle invariant suite",
        description="Check every closed-form formula and invariant of D against the "
        "brute-force oracle on a corpus of groups up to --max-order.  Some parts "
        "of the corpus stop at fixed caps whatever --max-order: "
        "quotient-monotonicity checks groups of order at most 100 only, "
        "generalized dihedral Dih(A) entries have |A| <= 32, generalized "
        "dicyclic Dic(A, y) entries have |A| <= 16, and zm and pq entries go "
        "to order 200.",
    )
    ver.add_argument(
        "--max-order", type=int, required=True, help="largest group order in the corpus"
    )

    return parser


def _parse_classes(raw: str | None) -> frozenset[GroupKind] | None:
    if raw is None:
        return None
    kinds = set()
    for token in raw.split(","):
        token = token.strip().lower()
        if token not in _CLASS_ALIASES:
            raise UsageError(
                f"unknown class {token!r}; expected one of {sorted(_CLASS_ALIASES)}"
            )
        kinds.add(_CLASS_ALIASES[token])
    return frozenset(kinds)


def _write_stdout(text: str) -> None:
    """Write all of `text` to stdout, or raise BrokenPipeError.

    A buffered write into a pipe whose reader leaves mid-write can return a
    short count without raising; the write after it raises.  In-process
    captures without a byte buffer take the text as it is.
    """
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[buffer.write(data) :]


def _write_lines(lines: list[str]) -> None:
    if lines:
        _write_stdout("\n".join(lines + [""]))


def _write_table(records) -> None:
    """Write the records as aligned columns under a header, once all are known.

    A table holds every row until the end, for its column widths, so it
    reads records (`run_sweep`), not a sweep's chunks.
    """
    headers = ("family", "params", "order", "D", "class", "notes")
    rows = [
        (
            record.family,
            ",".join(str(p) for p in record.params),
            str(record.order),
            str(record.D),
            record.kind.value,
            "; ".join(record.notes),
        )
        for record in records
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows)) if rows else len(headers[col])
        for col in range(len(headers))
    ]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in [headers, *rows]]
    _write_stdout("\n".join(lines + [""]))


def _cmd_classify(args) -> int:
    try:
        params = [int(x) for x in args.params.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"--params must be comma-separated integers, got {args.params!r}")
    record = search.run_classify(args.family, params)
    if args.verify:
        outcome = search.oracle_crosscheck(record)
        if outcome is None:
            print("oracle cross-check skipped: instance out of oracle scope", file=sys.stderr)
        else:
            print("oracle cross-check: D agrees", file=sys.stderr)
    if args.table:
        _write_table([record])
    else:
        _write_lines([record.to_json()])
    return EXIT_OK


def _sweep_bounds(args) -> dict[str, int]:
    values = {key: getattr(args, key) for key in _BOUND_KEYS}
    return {key: value for key, value in values.items() if value is not None}


def _cmd_search(args) -> int:
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    cfg = SweepConfig(
        family=args.family,
        bounds=_sweep_bounds(args),
        paper_mode=args.paper_mode,
        fixed_r=args.r,
        classes=_parse_classes(args.classes),
        dedupe=args.dedupe,
        include_edge=args.include_edge,
        cache_path=args.cache,
        budget=args.budget,
    )
    if args.table:
        _write_table(search.run_sweep(cfg))
    else:
        # one write per chunk, as it comes: an interrupted sweep has printed
        # every row of the chunks finished before the interrupt
        for chunk in search.sweep_chunks(cfg):
            _write_lines(chunk.lines)
    return EXIT_OK


def _cmd_perfect_plus_one(args) -> int:
    rows = numtheory.perfect_plus_one(args.count)
    for i, perfect, prime in rows:
        verdict = f"prime (p = {prime})" if prime is not None else "not a prime power"
        print(f"i={i}  P={perfect}  P+1={perfect + 1}  {verdict}")
    print("solutions: {" + ", ".join(str(i) for i, _, prime in rows if prime is not None) + "}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify  # loads the oracle and numpy

    start = time.perf_counter()
    results = verify.run_verify(args.max_order)
    failed = 0
    for result in results:
        if result.passed:
            print(f"PASS {result.name} ({result.checked} checked)")
        else:
            failed += 1
            print(f"FAIL {result.name} ({result.checked} checked): {result.detail}")
    elapsed = time.perf_counter() - start
    print(
        f"verify: {len(results) - failed}/{len(results)} invariants passed "
        f"in {elapsed:.1f}s"
    )
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# Built at import, not by the first `main`: in a process that calls `main`
# many times, every call then costs the same.
_build_parser()


def main(argv: list[str] | None = None) -> int:
    # D and the order are exact integers of any size, and Python 3.10.7 on
    # refuses to turn one of more than 4,300 digits into a string (or back)
    # unless the process lifts that limit
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is not None:
        lift(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        commands = {"classify": _cmd_classify, "search": _cmd_search,
                    "perfect-plus-one": _cmd_perfect_plus_one, "verify": _cmd_verify}
        code = commands[args.command](args)  # argparse admits only these
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (search.BudgetError, numtheory.OrderCapError, numtheory.FactorizationError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except search.OracleMismatchError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def _discard_stdout() -> None:
    """Point stdout's descriptor at /dev/null, so the flush at exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a descriptor (captured in-process)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())
