"""Parameter-space sweeps and single-instance classification.

A sweep enumerates the valid parameter tuples of one family inside inclusive
bounds, computes the normal-subgroup order sum through the closed-form path,
classifies each instance, and emits records in sorted-parameter order
regardless of worker count.

The tuples are evaluated in ordered chunks, and each finished chunk is
appended to the cache file (one JSON line per record, file closed) before its
records are emitted, so an interrupted sweep keeps every finished chunk and a
rerun with the same cache computes only the missing tuples.  A cache line
in the canonical form is decoded without a JSON parse and printed as read.
A corrupt or mistyped cache line, or one whose class disagrees with its D
and order, is skipped with a warning and its tuple recomputed.

Number theory on the sweep's small integers reads a smallest-prime-factor
table built once per sweep (`numtheory.sieve`, up to twice the largest
bound); pool workers that do not inherit it by fork build their own.  ZM
triples are enumerated from the residues of each m grouped by multiplicative
order, so the max_n factor of the old max_m^2 * max_n scan is gone; the scan
over the residues of each m is still Theta(max_m^2).  The budget gate still
counts max_m * max_n * max_m.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import families, numtheory, oracle
from .families import GroupKind

__all__ = [
    "FAMILIES",
    "FAMILY",
    "Family",
    "BudgetError",
    "OracleMismatchError",
    "PerfectPlusOneReport",
    "SearchRecord",
    "SweepConfig",
    "run_classify",
    "run_perfect_plus_one",
    "run_sweep",
]

NOTE_EDGE = "edge"
NOTE_LABEL_DIFFERS = "paper-label-differs"
NOTE_FORMULA_ONLY = "formula-only (no oracle)"

DEFAULT_BUDGET = 10_000_000

# tuples per evaluated chunk: the unit of cache appends, and so of resume
_CHUNK = 4096

_KINDS = {kind.value: kind for kind in GroupKind}
_KIND_JSON = {kind: _json_str(kind.value) for kind in GroupKind}

# The exact line `SearchRecord.to_json` writes when every string is printable
# ASCII without '"' or '\' (so needs no escape) and every integer is in
# canonical form (no leading zero, no -0).  A line of this form decodes
# without `json.loads`; `json.loads` would give the same record.
_CHARS = r"[ !#-\[\]-~]*"  # printable ASCII but '"' and '\'
_INT = r"(?:0|-?[1-9][0-9]*)"
_CANONICAL_LINE = re.compile(
    rf'{{"family": "({_CHARS})", "params": \[((?:{_INT}(?:, {_INT})*)?)\], '
    rf'"order": ({_INT}), "D": ({_INT}), "class": "({_CHARS})", '
    rf'"notes": \[((?:"{_CHARS}"(?:, "{_CHARS}")*)?)\]}}'
)


class BudgetError(Exception):
    """Sweep bounds describe more tuples than the configured budget allows."""


class OracleMismatchError(Exception):
    """A formula value disagreed with the brute-force oracle."""


@dataclass(frozen=True, init=False)
class SearchRecord:
    """One classified group instance as emitted by sweeps and classify."""

    # Slots, not a __dict__: a warm sweep holds every cached record together
    # with its line, and a dict per record put 10 MB on the peak RSS of a
    # 50,000-record sweep.  `_json` is the encoded line, or None.
    __slots__ = ("family", "params", "order", "D", "kind", "notes", "_json")

    family: str
    params: tuple[int, ...]
    order: int
    D: int
    kind: GroupKind
    notes: tuple[str, ...]

    def __init__(
        self,
        family: str,
        params: tuple[int, ...],
        order: int,
        D: int,
        kind: GroupKind,
        notes: tuple[str, ...] = (),
    ) -> None:
        # the slots' own setters: the frozen __setattr__ refuses assignment,
        # and object.__setattr__ per field costs twice as much
        _set_family(self, family)
        _set_params(self, params)
        _set_order(self, order)
        _set_D(self, D)
        _set_kind(self, kind)
        _set_notes(self, notes)
        _set_json(self, None)

    def __reduce__(self):
        # pickle's default restore of slots would go through the frozen
        # __setattr__; the line is not sent, it is cheap to encode again
        return SearchRecord, (self.family, self.params, self.order, self.D, self.kind, self.notes)

    def to_json(self) -> str:
        """The record as one JSON line, byte-identical to `json.dumps` of its dict.

        The line is encoded once and kept, so the cache append and stdout
        share it; a record decoded from a canonical cache line keeps that
        line and is never encoded.
        """
        line = self._json
        if line is None:
            line = (
                f'{{"family": {_json_str(self.family)}, '
                f'"params": [{", ".join(map(str, self.params))}], '
                f'"order": {self.order}, "D": {self.D}, '
                f'"class": {_KIND_JSON[self.kind]}, '
                f'"notes": [{", ".join(map(_json_str, self.notes))}]}}'
            )
            _set_json(self, line)
        return line

    @staticmethod
    def from_json(line: str) -> "SearchRecord":
        """Decode one cache line; a field of the wrong type raises TypeError.

        A line in the exact form `to_json` writes with no string escapes is
        decoded by one regex match and kept as the record's JSON line.  Any
        other line goes through `json.loads`: numbers must be JSON integers
        (not floats, strings or booleans) and notes a list of strings, so a
        mistyped line is rejected instead of coerced into a different record.
        An unknown class raises ValueError.
        """
        match = _CANONICAL_LINE.fullmatch(line)
        if match is not None:
            family, params, order, D, name, notes = match.groups()
            kind = _KINDS.get(name)
            if kind is None:
                raise ValueError(f"unknown class {name!r}")
            if ", " in params:
                params = tuple(map(int, params.split(", ")))
            else:  # most families take one parameter
                params = (int(params),) if params else ()
            record = SearchRecord(
                sys.intern(family),  # one string per family, not one per record
                params,
                int(order),
                int(D),
                kind,
                tuple(notes[1:-1].split('", "')) if notes else (),
            )
            _set_json(record, line)
            return record
        obj = json.loads(line)
        family, params, order, D = obj["family"], obj["params"], obj["order"], obj["D"]
        notes, kind = obj["notes"], _KINDS.get(obj["class"])
        if kind is None:
            raise ValueError(f"unknown class {obj['class']!r}")
        if not (
            type(family) is str
            and type(params) is list
            and type(order) is int
            and type(D) is int
            and type(notes) is list
            and all(type(x) is int for x in params)
            and all(type(x) is str for x in notes)
        ):
            raise TypeError("a record field has the wrong JSON type")
        return SearchRecord(family, tuple(params), order, D, kind, tuple(notes))


_set_family, _set_params, _set_order, _set_D, _set_kind, _set_notes, _set_json = (
    SearchRecord.__dict__[name].__set__ for name in SearchRecord.__slots__
)


@dataclass(frozen=True)
class Family:
    """One family, declared once: what search, verify and the CLI know of it.

    `tuple_count` bounds a sweep's tuple count for the budget gate before
    enumerating; it is None when `enumerate` counts against the budget
    itself.  `evaluate` maps params to (order, D, notes) in closed form;
    `build` gives the explicit group for the oracle, or None out of scope.
    """

    name: str
    bounds: tuple[str, ...]  # the sweep bound keys it accepts
    arity: int | None  # parameters per instance; None for any number
    tuple_count: Callable[[SweepConfig], int] | None
    enumerate: Callable[[SweepConfig], list[tuple[int, ...]]]
    evaluate: Callable[[tuple[int, ...]], tuple[int, int, tuple[str, ...]]]
    build: Callable[[tuple[int, ...]], oracle.FiniteGroup | None]


@dataclass
class SweepConfig:
    """Bounds and behavior of one sweep.

    `bounds` takes the keys of the family's record (`FAMILY[family].bounds`).
    """

    family: str
    bounds: dict[str, int] = field(default_factory=dict)
    paper_mode: bool = False
    fixed_r: int | None = None
    classes: frozenset[GroupKind] | None = None
    dedupe: bool = False
    include_edge: bool = False
    workers: int = 1
    cache_path: str | Path | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        family = FAMILY.get(self.family)
        if family is None:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        allowed = family.bounds
        for key, value in self.bounds.items():
            if key not in allowed:
                raise ValueError(
                    f"{self.family} sweeps accept bounds {sorted(allowed)}, got {key!r}"
                )
            if value < 1:
                raise ValueError(f"bound {key} must be positive, got {value}")
        if self.paper_mode and self.family != "zm":
            raise ValueError("paper mode applies to zm sweeps only")
        if self.fixed_r is not None and self.family != "zm":
            raise ValueError("a fixed r applies to zm sweeps only")

    def bound(self, key: str) -> int:
        try:
            return self.bounds[key]
        except KeyError:
            raise ValueError(f"{self.family} sweep needs the {key} bound") from None


def _n_range(lo: int):
    """Enumerator of (n,) for n from max(lo, min_n) to max_n."""
    return lambda cfg: [
        (n,) for n in range(max(lo, cfg.bounds.get("min_n", lo)), cfg.bound("max_n") + 1)
    ]


def _enumerate_affine(cfg: SweepConfig) -> list[tuple[int, ...]]:
    return [
        (q,)
        for q in range(2, cfg.bound("max_q") + 1)
        if numtheory.prime_power_decompose(q) is not None
    ]


def _enumerate_pq(cfg: SweepConfig) -> list[tuple[int, ...]]:
    max_q = cfg.bound("max_q")
    max_p = cfg.bounds.get("max_p", max_q)
    out = []
    for q in range(3, max_q + 1):
        if not numtheory.is_prime(q):
            continue
        for p in range(2, min(q - 1, max_p) + 1):
            if (q - 1) % p == 0 and numtheory.is_prime(p):
                out.append((p, q))
    out.sort()
    return out


def _enumerate_gen_dihedral(cfg: SweepConfig) -> list[tuple[int, ...]]:
    """The non-trivial chains of order <= max_a, counted against the budget."""
    out = []
    for chain in oracle.iter_abelian_types(cfg.bound("max_a")):
        if not chain:
            continue
        out.append(chain)
        if len(out) > cfg.budget:
            raise BudgetError(
                f"sweep bounds describe more than {cfg.budget} chains, "
                f"over the budget of {cfg.budget}"
            )
    out.sort(key=lambda c: (math.prod(c), c))
    return out


def _enumerate_zm(cfg: SweepConfig) -> list[tuple[int, ...]]:
    """The valid (m, n, r), sorted, with r reduced mod m.

    A residue r gives a valid triple with n iff gcd(m, n) = 1,
    gcd(r - 1, m) = 1 and ord_m(r) | n (r^n = 1 makes r a unit).  So each
    m's residues are grouped by their order once, and every multiple n of an
    order takes that group.  zm_validate still gates every emitted triple.
    """
    max_m = cfg.bound("max_m")
    max_n = cfg.bounds.get("max_n") if cfg.paper_mode else cfg.bound("max_n")
    out: list[tuple[int, ...]] = []
    for m in range(1, max_m + 1):
        if cfg.paper_mode:
            if not numtheory.is_prime(m) or (max_n is not None and m - 1 > max_n):
                continue
            lo = hi = m - 1
        else:
            lo, hi = 1, max_n
        residues = [cfg.fixed_r % m] if cfg.fixed_r is not None else range(m)
        rows: dict[int, list[int]] = {}
        for d, rs in _residues_by_order(m, residues, hi).items():
            for n in range(-(-lo // d) * d, hi + 1, d):  # multiples of d in [lo, hi]
                if math.gcd(m, n) == 1:
                    rows.setdefault(n, []).extend(rs)
        for n in sorted(rows):
            for r in sorted(rows[n]):
                if families.zm_validate(m, n, r) is not None:
                    out.append((m, n, r))
    return out


def _residues_by_order(m: int, residues, max_order: int) -> dict[int, list[int]]:
    """The residues r with gcd(r, m) = gcd(r - 1, m) = 1, keyed by ord_m(r).

    Orders above max_order or sharing a factor with m are dropped: no n in
    the sweep can be a multiple of them.
    """
    out: dict[int, list[int]] = {}
    for r in residues:
        if math.gcd(r, m) != 1 or math.gcd(r - 1, m) != 1:
            continue
        d = numtheory.mult_order(r, m)
        if d <= max_order and math.gcd(d, m) == 1:
            out.setdefault(d, []).append(r)
    return out


def _evaluate_zm(params: tuple[int, ...]) -> tuple[int, int, tuple[str, ...]]:
    triple = families.zm_validate(*params)
    if triple is None:
        raise ValueError(families.zm_invalid_reason(*params))
    return triple.order, families.zm_divisor_sum(triple), ()


def _evaluate_affine(params: tuple[int, ...]) -> tuple[int, int, tuple[str, ...]]:
    (q,) = params
    order, total = q * (q - 1), families.affine_divisor_sum(q)
    notes = () if numtheory.is_prime(q) else (NOTE_FORMULA_ONLY,)
    if abs(total - 2 * order) == 1:
        # the classical statement labels the quasi- and almost-Leinster affine
        # cases the other way around; flag every record where they differ
        notes += (NOTE_LABEL_DIFFERS,)
    return order, total, notes


def _build_pq(params: tuple[int, ...]) -> oracle.FiniteGroup:
    """The non-abelian group of order pq, as ZM(q, p, r) for r of order p mod q."""
    p, q = params
    for r in range(2, q):
        if pow(r, p, q) == 1:
            return oracle.build_zm(q, p, r)
    raise RuntimeError(f"no element of order {p} modulo {q} (bug)")


def _count(key: str) -> Callable[[SweepConfig], int]:
    return lambda cfg: cfg.bounds.get(key, 1)


def _zm_tuple_count(cfg: SweepConfig) -> int:
    b = cfg.bounds
    r_span = 1 if cfg.fixed_r is not None else b.get("max_m", 1)
    n_span = 1 if cfg.paper_mode else b.get("max_n", 1)
    return b.get("max_m", 1) * n_span * r_span


# Every family, in the order the CLI lists them.  Evaluators and builders
# look the module functions up at call time, so wrapping them (as the bench
# tracer does) is seen.
FAMILY: dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "cyclic", ("max_n",), 1, _count("max_n"), _n_range(1),
            lambda p: (p[0], numtheory.divisor_sum(p[0]), ()),
            lambda p: oracle.build_cyclic(p[0]),
        ),
        Family(
            "zm", ("max_m", "max_n"), 3, _zm_tuple_count, _enumerate_zm,
            _evaluate_zm,
            lambda p: oracle.build_zm(*p),
        ),
        Family(
            "affine", ("max_q",), 1, _count("max_q"), _enumerate_affine,
            _evaluate_affine,
            lambda p: oracle.build_affine_prime(p[0]) if numtheory.is_prime(p[0]) else None,
        ),
        Family(
            "dihedral", ("max_n", "min_n"), 1, _count("max_n"), _n_range(1),
            lambda p: (2 * p[0], families.dihedral_divisor_sum(p[0]), ()),
            lambda p: oracle.build_generalized_dihedral(p),
        ),
        Family(
            "gen-dihedral", ("max_a",), None, None, _enumerate_gen_dihedral,
            lambda p: (2 * math.prod(p), families.generalized_dihedral_divisor_sum(p), ()),
            lambda p: oracle.build_generalized_dihedral(p),
        ),
        Family(
            "dicyclic", ("max_n", "min_n"), 1, _count("max_n"), _n_range(2),
            lambda p: (4 * p[0], families.dicyclic_divisor_sum(p[0]), ()),
            lambda p: oracle.build_generalized_dicyclic([2 * p[0]], p[0]),
        ),
        Family(
            "pq", ("max_q", "max_p"), 2, lambda cfg: cfg.bounds.get("max_q", 1) ** 2,
            _enumerate_pq,
            lambda p: (p[0] * p[1], families.pq_divisor_sum(*p), ()),
            _build_pq,
        ),
    )
}
FAMILIES = tuple(FAMILY)


def _evaluate(family: str, params: tuple[int, ...]) -> SearchRecord:
    try:
        fam = FAMILY[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    arity = fam.arity
    if arity is not None and len(params) != arity:
        raise ValueError(
            f"{family} takes {arity} parameter{'s' if arity != 1 else ''}, "
            f"got {len(params)}"
        )
    order, total, notes = fam.evaluate(params)
    kind = families.classify_kind(total, order)
    if order == 1:
        notes += (NOTE_EDGE,)
    return SearchRecord(family, tuple(params), order, total, kind, notes)


def _evaluate_batch(family: str, batch: list[tuple[int, ...]]) -> list[SearchRecord]:
    return [_evaluate(family, params) for params in batch]


# a pool worker's own sieve block, referenced so that it stays open for the
# worker's life (see _open_worker_sieve)
_WORKER_SIEVE = None


def _open_worker_sieve(limit: int) -> None:
    """Pool initializer: give the worker the sweep's smallest-prime-factor table.

    A forked worker inherits the parent's open table and keeps it; a spawned
    or forkserver worker starts without one and builds its own.
    """
    global _WORKER_SIEVE
    if numtheory.sieve_limit() < min(limit, numtheory.SIEVE_CAP):
        _WORKER_SIEVE = numtheory.sieve(limit)
        _WORKER_SIEVE.__enter__()


def _evaluate_chunks(
    family: str, workers: int, batches: list[list[tuple[int, ...]]], sieve_limit: int
):
    """Yield the evaluated records of each batch, in batch order."""
    if workers == 1 or not any(batches):
        for batch in batches:
            yield _evaluate_batch(family, batch)
        return
    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=_open_worker_sieve, initargs=(sieve_limit,)
    )
    try:
        yield from pool.map(_evaluate_batch, repeat(family), batches)
    finally:
        pool.shutdown(cancel_futures=True)


def _load_cache(path: Path, name: str) -> dict[tuple[int, ...], SearchRecord] | None:
    """The cached records of family `name`; None (after a warning) if unreadable.

    A line that does not decode, or whose class is not the one its D and
    order give, is skipped with a warning, and its tuple is recomputed.
    """
    if not path.exists():
        return {}
    cached: dict[tuple[int, ...], SearchRecord] = {}
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = SearchRecord.from_json(line)
                    if record.kind is not families.classify_kind(record.D, record.order):
                        raise ValueError(
                            f"class {record.kind.value!r} disagrees with "
                            f"D = {record.D} and order {record.order}"
                        )
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    print(
                        f"warning: skipping corrupt cache line {lineno}: {exc}",
                        file=sys.stderr,
                    )
                    continue
                if record.family == name:
                    cached[record.params] = record
    except (OSError, UnicodeDecodeError) as exc:
        print(f"warning: cache read failed ({exc}); sweep continues", file=sys.stderr)
        return None
    return cached


def _append_cache(path: Path, records: list[SearchRecord]) -> bool:
    """Append one finished chunk to the cache; False (after a warning) on failure."""
    try:
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n".join([record.to_json() for record in records] + [""]))
    except OSError as exc:
        print(f"warning: cache write failed ({exc}); sweep continues", file=sys.stderr)
        return False
    return True


def run_sweep(cfg: SweepConfig):
    """Yield classified records for every valid tuple in bounds, sorted by params.

    The sorted tuples are cut into chunks of at most _CHUNK (and at most
    1/workers of the tuples, so that every worker gets one).  Chunks are
    evaluated in order, serially or over a process pool; each finished chunk
    is appended to the cache (opened, written and closed) before its records
    are yielded.  Output is byte-identical for any worker count.  The
    smallest-prime-factor table is open for the whole sweep, in this process
    and in every pool worker.
    """
    family = FAMILY[cfg.family]
    raw = family.tuple_count(cfg) if family.tuple_count is not None else None
    if raw is not None and raw > cfg.budget:
        raise BudgetError(
            f"sweep bounds describe up to {raw} tuples, over the budget of {cfg.budget}"
        )
    sieve_limit = 2 * max(cfg.bounds.values(), default=0) + 1
    with numtheory.sieve(sieve_limit):
        params_list = family.enumerate(cfg)
        cache_path = Path(cfg.cache_path) if cfg.cache_path is not None else None
        cached = _load_cache(cache_path, cfg.family) if cache_path else {}
        if cached is None:
            cache_path, cached = None, {}  # warned; the sweep goes on without a cache
        size = max(1, min(_CHUNK, -(-len(params_list) // cfg.workers)))
        chunks = [params_list[i : i + size] for i in range(0, len(params_list), size)]
        todo = [[p for p in chunk if p not in cached] for chunk in chunks]
        evaluated = _evaluate_chunks(cfg.family, cfg.workers, todo, sieve_limit)
        for chunk, fresh in zip(chunks, evaluated):
            if cache_path and fresh and not _append_cache(cache_path, fresh):
                cache_path = None  # warned once; the sweep goes on without a cache
            computed = iter(fresh)
            for params in chunk:
                record = cached.pop(params, None) or next(computed)
                if NOTE_EDGE in record.notes and not cfg.include_edge:
                    continue
                if cfg.classes is not None and record.kind not in cfg.classes:
                    continue
                if cfg.dedupe and cfg.family == "zm":
                    triple = families.ZMTriple(*record.params)
                    if families.zm_canonical(triple) != triple:
                        continue
                yield record


def oracle_crosscheck(record: SearchRecord) -> bool | None:
    """Check one record's D against the brute-force oracle.

    Returns True when the oracle agrees, None when the instance is out of
    oracle scope (the family's builder gives None, or the order is above the
    cap); raises
    OracleMismatchError on disagreement.
    """
    family = FAMILY.get(record.family)
    if family is None:
        return None
    try:
        group = family.build(record.params)
    except oracle.OrderCapError:
        return None
    if group is None:
        return None
    oracle_total = oracle.group_divisor_sum(group)
    if oracle_total != record.D:
        raise OracleMismatchError(
            f"{record.family}{record.params}: formula D = {record.D} "
            f"but oracle D = {oracle_total}"
        )
    return True


def run_classify(family: str, params: list[int] | tuple[int, ...]) -> SearchRecord:
    """Classify one instance in closed form; `oracle_crosscheck` checks the result."""
    if family not in FAMILY:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return _evaluate(family, tuple(params))


@dataclass(frozen=True)
class PerfectPlusOneReport:
    """Outcome of the even-perfect-plus-one prime-power scan."""

    rows: tuple[tuple[int, int, int, int | None], ...]  # (i, P_i, P_i + 1, p or None)
    solutions: tuple[int, ...]


def run_perfect_plus_one(count: int) -> PerfectPlusOneReport:
    """Scan the first `count` even perfect numbers for P + 1 being a prime power."""
    hits = {i: p for i, _, p in numtheory.perfect_plus_one(count)}
    rows = []
    for i, r in enumerate(numtheory.verified_mersenne_exponents()[:count], start=1):
        p_i = (1 << (r - 1)) * ((1 << r) - 1)
        rows.append((i, p_i, p_i + 1, hits.get(i)))
    return PerfectPlusOneReport(tuple(rows), tuple(sorted(hits)))
