"""Parameter-space sweeps and single-instance classification.

A sweep enumerates the valid parameter tuples of one family inside inclusive
bounds, computes the normal-subgroup order sum through the closed-form path,
classifies each instance, and emits records in sorted-parameter order
regardless of worker count.  An append-only cache file lets interrupted
sweeps resume without recomputation.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import families, numtheory, oracle
from .families import GroupKind

__all__ = [
    "FAMILIES",
    "BudgetError",
    "OracleMismatchError",
    "PerfectPlusOneReport",
    "SearchRecord",
    "SweepConfig",
    "run_classify",
    "run_perfect_plus_one",
    "run_sweep",
]

FAMILIES = ("cyclic", "zm", "affine", "dihedral", "gen-dihedral", "dicyclic", "pq")

_FAMILY_BOUND_KEYS = {
    "cyclic": {"max_n"},
    "zm": {"max_m", "max_n"},
    "affine": {"max_q"},
    "dihedral": {"max_n", "min_n"},
    "gen-dihedral": {"max_a"},
    "dicyclic": {"max_n", "min_n"},
    "pq": {"max_q", "max_p"},
}

# parameter arity per family: cyclic/dihedral/dicyclic/affine take one
# number, pq two, zm three, gen-dihedral any number of cyclic factor orders
_FAMILY_ARITY = {
    "cyclic": 1,
    "dihedral": 1,
    "dicyclic": 1,
    "affine": 1,
    "pq": 2,
    "zm": 3,
}

NOTE_EDGE = "edge"
NOTE_LABEL_DIFFERS = "paper-label-differs"
NOTE_FORMULA_ONLY = "formula-only (no oracle)"

DEFAULT_BUDGET = 10_000_000


class BudgetError(Exception):
    """Sweep bounds describe more tuples than the configured budget allows."""


class OracleMismatchError(Exception):
    """A formula value disagreed with the brute-force oracle."""


@dataclass(frozen=True)
class SearchRecord:
    """One classified group instance as emitted by sweeps and classify."""

    family: str
    params: tuple[int, ...]
    order: int
    D: int
    kind: GroupKind
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family,
                "params": list(self.params),
                "order": self.order,
                "D": self.D,
                "class": self.kind.value,
                "notes": list(self.notes),
            }
        )

    @staticmethod
    def from_json(line: str) -> "SearchRecord":
        obj = json.loads(line)
        return SearchRecord(
            family=str(obj["family"]),
            params=tuple(int(x) for x in obj["params"]),
            order=int(obj["order"]),
            D=int(obj["D"]),
            kind=GroupKind(obj["class"]),
            notes=tuple(str(x) for x in obj["notes"]),
        )


@dataclass
class SweepConfig:
    """Bounds and behavior of one sweep.

    `bounds` keys depend on the family: max_n (cyclic, dihedral, dicyclic;
    plus optional min_n), max_m/max_n (zm), max_q (affine, pq; plus optional
    max_p), max_a (gen-dihedral).
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
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        allowed = _FAMILY_BOUND_KEYS[self.family]
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


def _raw_tuple_count(cfg: SweepConfig) -> int | None:
    """Cheap upper bound on the enumerated tuple count, for the budget gate.

    None for gen-dihedral, whose chains are counted exactly as they are
    enumerated.
    """
    b = cfg.bounds
    if cfg.family == "zm":
        r_span = 1 if cfg.fixed_r is not None else b.get("max_m", 1)
        n_span = 1 if cfg.paper_mode else b.get("max_n", 1)
        return b.get("max_m", 1) * n_span * r_span
    if cfg.family == "pq":
        return b.get("max_q", 1) * b.get("max_q", 1)
    if cfg.family in ("cyclic", "dihedral", "dicyclic"):
        return b.get("max_n", 1)
    if cfg.family == "affine":
        return b.get("max_q", 1)
    return None


def _enumerate_params(cfg: SweepConfig) -> list[tuple[int, ...]]:
    raw = _raw_tuple_count(cfg)
    if raw is not None and raw > cfg.budget:
        raise BudgetError(
            f"sweep bounds describe up to {raw} tuples, over the budget of {cfg.budget}"
        )
    family = cfg.family
    out: list[tuple[int, ...]] = []
    if family == "cyclic":
        out = [(n,) for n in range(1, cfg.bound("max_n") + 1)]
    elif family == "dihedral":
        lo = max(1, cfg.bounds.get("min_n", 1))
        out = [(n,) for n in range(lo, cfg.bound("max_n") + 1)]
    elif family == "dicyclic":
        lo = max(2, cfg.bounds.get("min_n", 2))
        out = [(n,) for n in range(lo, cfg.bound("max_n") + 1)]
    elif family == "affine":
        for q in range(2, cfg.bound("max_q") + 1):
            if numtheory.prime_power_decompose(q) is not None:
                out.append((q,))
    elif family == "pq":
        max_q = cfg.bound("max_q")
        max_p = cfg.bounds.get("max_p", max_q)
        for q in range(3, max_q + 1):
            if not numtheory.is_prime(q):
                continue
            for p in range(2, min(q - 1, max_p) + 1):
                if (q - 1) % p == 0 and numtheory.is_prime(p):
                    out.append((p, q))
        out.sort()
    elif family == "gen-dihedral":
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
    elif family == "zm":
        out = _enumerate_zm(cfg)
    return out


def _enumerate_zm(cfg: SweepConfig) -> list[tuple[int, ...]]:
    max_m = cfg.bound("max_m")
    out: list[tuple[int, ...]] = []
    if cfg.paper_mode:
        max_n = cfg.bounds.get("max_n")
        for m in range(2, max_m + 1):
            if not numtheory.is_prime(m):
                continue
            n = m - 1
            if max_n is not None and n > max_n:
                continue
            candidates = [cfg.fixed_r] if cfg.fixed_r is not None else range(2, m)
            for r in candidates:
                if families.zm_validate(m, n, r) is not None:
                    out.append((m, n, r % m))
    else:
        max_n = cfg.bound("max_n")
        for m in range(1, max_m + 1):
            for n in range(1, max_n + 1):
                if math.gcd(m, n) != 1:
                    continue
                candidates = (
                    [cfg.fixed_r % m] if cfg.fixed_r is not None else range(0, m)
                )
                for r in candidates:
                    if families.zm_validate(m, n, r) is not None:
                        out.append((m, n, r))
    return sorted(set(out))


def _evaluate(family: str, params: tuple[int, ...]) -> SearchRecord:
    arity = _FAMILY_ARITY.get(family)
    if arity is not None and len(params) != arity:
        raise ValueError(
            f"{family} takes {arity} parameter{'s' if arity != 1 else ''}, "
            f"got {len(params)}"
        )
    notes: list[str] = []
    if family == "cyclic":
        (n,) = params
        order, total = n, numtheory.divisor_sum(n)
    elif family == "dihedral":
        (n,) = params
        order, total = 2 * n, families.dihedral_divisor_sum(n)
    elif family == "dicyclic":
        (n,) = params
        order, total = 4 * n, families.dicyclic_divisor_sum(n)
    elif family == "affine":
        (q,) = params
        order, total = q * (q - 1), families.affine_divisor_sum(q)
        if not numtheory.is_prime(q):
            notes.append(NOTE_FORMULA_ONLY)
    elif family == "pq":
        p, q = params
        order, total = p * q, families.pq_divisor_sum(p, q)
    elif family == "gen-dihedral":
        order = 2 * math.prod(params)
        total = families.generalized_dihedral_divisor_sum(params)
    elif family == "zm":
        m, n, r = params
        triple = families.zm_validate(m, n, r)
        if triple is None:
            raise ValueError(families.zm_invalid_reason(m, n, r))
        order, total = triple.order, families.zm_divisor_sum(triple)
    else:
        raise ValueError(f"unknown family {family!r}")
    kind = families.classify_group(total, order).kind
    if family == "affine" and kind in (GroupKind.QUASI_LEINSTER, GroupKind.ALMOST_LEINSTER):
        # the classical statement labels these two affine cases the other way
        # around; flag every record where the definition-derived label differs
        notes.append(NOTE_LABEL_DIFFERS)
    if order == 1:
        notes.append(NOTE_EDGE)
    return SearchRecord(family, tuple(params), order, total, kind, tuple(notes))


def _evaluate_batch(family: str, batch: list[tuple[int, ...]]) -> list[SearchRecord]:
    return [_evaluate(family, params) for params in batch]


def _load_cache(path: Path, family: str) -> dict[tuple[int, ...], SearchRecord]:
    cached: dict[tuple[int, ...], SearchRecord] = {}
    if not path.exists():
        return cached
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = SearchRecord.from_json(line)
            except (ValueError, KeyError, TypeError) as exc:
                print(
                    f"warning: skipping corrupt cache line {lineno}: {exc}",
                    file=sys.stderr,
                )
                continue
            if record.family == family:
                cached[record.params] = record
    return cached


def _append_cache(path: Path, records: list[SearchRecord]) -> None:
    try:
        with path.open("a", encoding="utf-8") as fh:
            for record in records:
                fh.write(record.to_json() + "\n")
    except OSError as exc:
        print(f"warning: cache write failed ({exc}); sweep continues", file=sys.stderr)


def run_sweep(cfg: SweepConfig):
    """Yield classified records for every valid tuple in bounds, sorted by params.

    The parameter space is split into contiguous chunks processed by a worker
    pool; results are merged and sorted before emission, so output is
    byte-identical for any worker count.
    """
    params_list = _enumerate_params(cfg)
    cache_path = Path(cfg.cache_path) if cfg.cache_path is not None else None
    cached = _load_cache(cache_path, cfg.family) if cache_path else {}

    todo = [p for p in params_list if p not in cached]
    computed: dict[tuple[int, ...], SearchRecord] = {}
    if todo:
        if cfg.workers == 1:
            fresh = _evaluate_batch(cfg.family, todo)
        else:
            chunk = -(-len(todo) // cfg.workers)
            batches = [todo[i : i + chunk] for i in range(0, len(todo), chunk)]
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                results = pool.map(_evaluate_batch, [cfg.family] * len(batches), batches)
                fresh = [record for batch in results for record in batch]
        computed = {record.params: record for record in fresh}
        if cache_path:
            _append_cache(cache_path, fresh)

    for params in params_list:
        record = cached.get(params) or computed[params]
        if NOTE_EDGE in record.notes and not cfg.include_edge:
            continue
        if cfg.classes is not None and record.kind not in cfg.classes:
            continue
        if cfg.dedupe and cfg.family == "zm":
            triple = families.ZMTriple(*record.params)
            if families.zm_canonical(triple) != triple:
                continue
        yield record


def _oracle_group(family: str, params: tuple[int, ...]) -> oracle.FiniteGroup | None:
    """Brute-force builder for a family instance, or None when out of oracle scope."""
    if family == "cyclic":
        return oracle.build_cyclic(params[0])
    if family == "dihedral":
        return oracle.build_generalized_dihedral([params[0]])
    if family == "gen-dihedral":
        return oracle.build_generalized_dihedral(list(params))
    if family == "dicyclic":
        n = params[0]
        return oracle.build_generalized_dicyclic([2 * n], n)
    if family == "zm":
        return oracle.build_zm(*params)
    if family == "affine":
        return oracle.build_affine_prime(params[0]) if numtheory.is_prime(params[0]) else None
    if family == "pq":
        p, q = params
        for r in range(2, q):
            if pow(r, p, q) == 1:
                return oracle.build_zm(q, p, r)
        raise RuntimeError(f"no element of order {p} modulo {q} (bug)")
    return None


def oracle_crosscheck(record: SearchRecord) -> bool | None:
    """Check one record's D against the brute-force oracle.

    Returns True when the oracle agrees, None when the instance is out of
    oracle scope (no builder, or order above the cap); raises
    OracleMismatchError on disagreement.
    """
    try:
        group = _oracle_group(record.family, record.params)
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


def run_classify(
    family: str, params: list[int] | tuple[int, ...], *, verify: bool = False
) -> SearchRecord:
    """Classify one instance; optionally cross-check D against the oracle.

    With verify=True the instance is rebuilt as an explicit group when a
    builder exists and the order fits the oracle cap; a D disagreement raises
    OracleMismatchError.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    record = _evaluate(family, tuple(params))
    if verify:
        oracle_crosscheck(record)
    return record


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
