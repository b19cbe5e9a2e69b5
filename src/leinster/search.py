"""Parameter-space sweeps and single-instance classification.

A sweep enumerates the valid parameter tuples of one family inside inclusive
bounds, computes the normal-subgroup order sum through the closed-form path,
classifies each instance, and emits records in sorted-parameter order.

A sweep is one loop, in one process, over ordered chunks of _CHUNK tuples,
each passed along as columns (`Chunk`: params, order, D, class, notes and
the JSON line), not as records.  `sweep_chunks` pulls a chunk from the
family's lazy enumeration, evaluates it (`_evaluate_batch`: closed form
and classification) or takes its rows from the cache file, appends the rows
the file lacks (their lines encoded by one f-string), filters the chunk's
columns by class and edge and only then yields it.  So a sweep holds about
one chunk whatever its bounds, an interrupted sweep keeps every finished
chunk, and a rerun with the same cache resumes after the rows the file
holds.  The CLI writes each chunk's lines in one write; `run_sweep` gives
the same rows as `SearchRecord`s, which keep no line.

Every family evaluates a batch as columns (`Family.evaluate_batch`):
cyclic, dihedral, dicyclic and affine from one segmented sieve of the
batch's window, gen-dihedral from one window of factorizations of its
orders, pq against one sieve of the primes up to max_q, zm once per
(m, n, order vector of r) (`_zm_batch`).  Zm
triples are listed by order vector too (`_zm_residues`), and each family's
budget gate refuses a sweep before any tuple is evaluated.  Without a
cache, a chunk's lines are encoded only for the rows it keeps.

The cache file is a prefix checkpoint (`_Cache`): a warm sweep takes its
valid lines while each holds the next params it asks for, evaluates the
rest, and appends only where the file simply ends.  A valid line is one
`_encode` writes (`_CANONICAL_LINE`), of a class its D and order give.
Cyclic, dihedral, dicyclic and pq rows cost less to compute than their
lines to decode (`Family.recompute`): a warm chunk is evaluated and
compared with the file's bytes, a line decoded only where they differ.
Affine, zm and gen-dihedral decode a chunk's lines of the prefix in one
pass, and print them as read.

Importing the module loads neither numpy nor the oracle: the family builders
and `oracle_crosscheck` import `leinster.oracle` when first called.
"""

from __future__ import annotations

import functools
import math
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from itertools import chain, compress, groupby, islice, product, repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import add, and_, floordiv, itemgetter, mul
from pathlib import Path

from . import families, numtheory
from .families import _CHUNK, GroupKind  # _CHUNK: tuples per chunk, the unit of resume

TYPE_CHECKING = False  # True to type checkers only; importing typing costs 5 ms
if TYPE_CHECKING:
    from .oracle import FiniteGroup

__all__ = [
    "FAMILIES",
    "FAMILY",
    "Family",
    "BudgetError",
    "OracleMismatchError",
    "SearchRecord",
    "SweepConfig",
    "run_classify",
    "run_sweep",
    "sweep_chunks",
]

NOTE_EDGE = "edge"
NOTE_LABEL_DIFFERS = "paper-label-differs"
NOTE_FORMULA_ONLY = "formula-only (no oracle)"

DEFAULT_BUDGET = 10_000_000

# lines of a chunk compared with a cache file's bytes, or decoded from it, at a
# time: a whole chunk's bytes cost more to allocate than to compare, and decode
# slower (its rows outgrow the processor's caches)
_PIECE = 256

_KINDS = {kind.value: kind for kind in GroupKind}

# The one line form a cache line is read in: the exact line `_encode` writes
# when every string is printable ASCII without '"' or '\' (so needs no
# escape), every integer in canonical form (no leading zero, no -0).  Every
# family name, class and note a sweep writes is such a string.
_CHARS = r"[ !#-\[\]-~]*"  # printable ASCII but '"' and '\'
_INT = r"(?:0|-?[1-9][0-9]*)"
# Anchored at line ends, so `findall` over a block of lines matches whole
# lines.  The lists are written as alternatives (none, one, several), not as
# an optional repeat: a repeated group costs the regex engine an allocation
# each time it is entered, so a line of one parameter and no notes, which
# enters none, matches in about two thirds of the time.
_CANONICAL_LINE = re.compile(
    rf'^{{"family": "({_CHARS})", "params": \[(|{_INT}|{_INT}(?:, {_INT})+)\], '
    rf'"order": ({_INT}), "D": ({_INT}), "class": "({_CHARS})", '
    rf'"notes": \[(|"{_CHARS}"|"{_CHARS}"(?:, "{_CHARS}")+)\]}}$',
    re.MULTILINE,
)


class BudgetError(Exception):
    """Sweep bounds describe more tuples than the configured budget allows."""


class OracleMismatchError(Exception):
    """A formula value disagreed with the brute-force oracle."""


@dataclass(frozen=True, slots=True)
class SearchRecord:
    """One classified group instance as emitted by sweeps and classify: written
    as one JSON line (`to_json`), never decoded from one (`_Cache` reads columns)."""

    # Slots, not a __dict__: a dict per record put 10 MB on the peak RSS of a
    # 50,000-record sweep.

    family: str
    params: tuple[int, ...]
    order: int
    D: int
    kind: GroupKind
    notes: tuple[str, ...] = ()

    def __reduce__(self):
        # rebuilt by the constructor: how pickle's default restores a frozen
        # slots dataclass changed between Python 3.10 patch levels
        return SearchRecord, (self.family, self.params, self.order, self.D, self.kind, self.notes)

    def to_json(self) -> str:
        """The record as one JSON line, byte-identical to `json.dumps` of its dict,
        encoded by `_encode` on each call."""
        return _encode(
            self.family, (self.params,), (self.order,), (self.D,), (self.kind,), (self.notes,)
        )[0]


class Chunk:
    """Rows of one family as columns: the unit a sweep passes along.

    Row i is the instance `params[i]`, of order `orders[i]`, with D `Ds[i]`,
    class `kinds[i]` and notes `notes[i]`; `lines[i]` is its JSON line,
    byte-identical to `json.dumps` of the record's dict.  A column is a list
    or a tuple; `lines` is a list, or None in a sweep until `_with_lines`
    encodes it.
    """

    __slots__ = ("family", "params", "orders", "Ds", "kinds", "notes", "lines")

    def __init__(self, family, params, orders, Ds, kinds, notes, lines) -> None:
        self.family, self.params, self.orders, self.Ds = family, params, orders, Ds
        self.kinds, self.notes, self.lines = kinds, notes, lines

    def columns(self) -> tuple[list, ...]:
        """The six columns, params to lines."""
        return self.params, self.orders, self.Ds, self.kinds, self.notes, self.lines

    def records(self) -> list[SearchRecord]:
        """The rows as records; `lines` is not read."""
        return list(map(SearchRecord, repeat(self.family), *self.columns()[:-1]))

    def extend(self, rows: Chunk) -> None:
        """Append `rows`, of the same family, to this chunk, whose columns are lists."""
        for column, new in zip(self.columns(), rows.columns()):
            column += new


def _encode(family: str, params, orders, Ds, kinds, notes) -> list[str]:
    """The JSON lines of rows given as columns, each byte-identical to `json.dumps`.

    One f-string serves the chunk (`str.format` and `%` parse their format
    again per row, half as long again).  When the first row has one
    parameter, every row is tried by one without joins, and a row with
    notes (an edge, say) is then encoded again (a `ValueError` raised and
    caught costs a single record more than its encoding).  A class is
    written as its value, read from `_value_`: `.value` is a Python-level
    property.
    """
    head = f'{{"family": {_json_str(family)}, "params": ['

    def encoded(rows) -> list[str]:
        return [
            f'{head}{", ".join(map(str, p))}], "order": {o}, "D": {d}, "class": "{k._value_}", '
            f'"notes": [{", ".join(map(_json_str, n))}]}}'
            for p, o, d, k, n in rows
        ]

    if params and len(params[0]) == 1:
        try:
            lines = [
                f'{head}{p}], "order": {o}, "D": {d}, "class": "{k._value_}", "notes": []}}'
                for (p,), o, d, k in zip(params, orders, Ds, kinds)
            ]
        except ValueError:  # some row has other than one parameter
            pass
        else:
            if any(notes):  # a pass over the notes alone costs less than `compress`
                for i in compress(range(len(lines)), notes):
                    (lines[i],) = encoded([(params[i], orders[i], Ds[i], kinds[i], notes[i])])
            return lines
    return encoded(zip(params, orders, Ds, kinds, notes))


@dataclass(frozen=True)
class Family:
    """One family, declared once: what search, verify and the CLI know of it.

    `tuple_count` bounds a sweep's tuple count for the budget gate before
    enumerating; it is None when `enumerate` counts against the budget
    itself.  `enumerate` gives the valid params in bounds, sorted, as any
    iterable: a generator is pulled one chunk at a time, so a large family
    is never held whole (gen-dihedral's chains come by group order, not
    as ascending tuples).  `evaluate` maps
    params to (order, D, notes) in closed form; `build` gives the explicit
    group for the oracle, or None out of scope.  `up_to(max_order)` gives,
    lazily and in `enumerate`'s order, the params of order <= max_order for
    `verify` to build, less those another family lists: no m = 1 for zm
    (ZM(1, n, 0) is C_n) and no one-factor chain for gen-dihedral (Dih(C_n)
    is D_2n).  `label` names an instance (`ZM(7,6,3)`).  `evaluate_batch`
    maps a sweep's batch (an ascending list of valid params) to what
    `evaluate` gives for each, as three columns (orders, Ds, notes).
    `recompute`: a warm sweep evaluates each chunk and checks its lines
    against the cache's bytes rather than decode them; set where a row
    costs less to compute than its line to decode (measured).
    """

    name: str
    bounds: tuple[str, ...]  # the sweep bound keys it accepts
    arity: int | None  # parameters per instance; None for any number
    tuple_count: Callable[[SweepConfig], int] | None
    enumerate: Callable[[SweepConfig], Iterable[tuple[int, ...]]]
    evaluate: Callable[[tuple[int, ...]], tuple[int, int, tuple[str, ...]]]
    build: Callable[[tuple[int, ...]], FiniteGroup | None]
    up_to: Callable[[int], Iterable[tuple[int, ...]]]
    label: Callable[[tuple[int, ...]], str]
    evaluate_batch: Callable[[list[tuple[int, ...]]], tuple[list, list, list]]
    recompute: bool = False


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
    cache_path: str | Path | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        family = FAMILY.get(self.family)
        if family is None:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
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
        if self.dedupe and self.family != "zm":
            raise ValueError("dedupe applies to zm sweeps only")

    def bound(self, key: str) -> int:
        try:
            return self.bounds[key]
        except KeyError:
            raise ValueError(f"{self.family} sweep needs the {key} bound") from None


def _n_range(lo: int):
    """Enumerator of (n,) for n from max(lo, min_n) to max_n, lazily.

    zip over one iterable yields its items as 1-tuples.
    """
    return lambda cfg: zip(range(max(lo, cfg.bounds.get("min_n", lo)), cfg.bound("max_n") + 1))


def _n_count(lo: int) -> Callable[[SweepConfig], int]:
    """The number of tuples `_n_range(lo)` enumerates; 0 with no max_n, which it refuses."""
    return lambda cfg: max(0, cfg.bounds.get("max_n", 0) - max(lo, cfg.bounds.get("min_n", lo)) + 1)


def _prime_powers(max_q: int) -> Iterator[tuple[int, ...]]:
    """(q,) for each prime power q <= max_q, ascending, from `numtheory.prime_powers`."""
    return zip(numtheory.prime_powers(max_q))


def _prime_flags(limit: int) -> bytearray:
    """flags[n] = 1 when n is prime, else 0, for 0 <= n <= limit: one sieve."""
    flags = bytearray(limit + 1)
    for p in numtheory.primes(limit):
        flags[p] = 1
    return flags


def _enumerate_pq(cfg: SweepConfig) -> Iterator[tuple[int, ...]]:
    """The prime pairs (p, q) with q = 1 (mod p), in (p, q) order."""
    max_q = cfg.bound("max_q")
    prime = _prime_flags(max_q)
    top = min(cfg.bounds.get("max_p", max_q), max_q - 1)
    for p in compress(range(top + 1), prime):
        yield from _pq_row(p, max_q, prime)


def _pq_up_to(max_order: int) -> Iterator[tuple[int, ...]]:
    """The pairs (p, q) with p * q <= max_order, in (p, q) order."""
    prime = _prime_flags(max_order // 2)
    for p in compress(range(math.isqrt(max_order) + 1), prime):
        yield from _pq_row(p, max_order // p, prime)


def _pq_row(p: int, max_q: int, prime: bytearray) -> Iterator[tuple[int, ...]]:
    """The pairs (p, q) of a prime p with q <= max_q, q prime by `prime`
    (`_prime_flags` of max_q or more); p walks its odd q only."""
    step = p if p == 2 else 2 * p
    return zip(repeat(p), compress(range(1 + step, max_q + 1, step), prime[1 + step :: step]))


def _enumerate_gen_dihedral(cfg: SweepConfig) -> Iterator[tuple[int, ...]]:
    """The non-trivial chains of order <= max_a in (order, chain) order, as a stream.

    They are counted first, a `numtheory.factorizations` window of _CHUNK
    orders at a time (n has the product over p^e || n of the partitions of
    e), so a sweep over the budget is refused before any chain is evaluated.
    """
    max_a = cfg.bound("max_a")
    count = 0
    for lo in range(2, max_a + 1, _CHUNK):
        for sylow in numtheory.factorizations(lo, min(lo + _CHUNK - 1, max_a)):
            count += math.prod(map(len, map(families._partitions, map(itemgetter(1), sylow))))
        if count > cfg.budget:
            raise BudgetError(
                f"sweep bounds describe more than {cfg.budget} chains, "
                f"over the budget of {cfg.budget}"
            )
    chains = families.iter_abelian_types(max_a)
    next(chains)  # the trivial group's empty chain
    return chains


def _enumerate_zm(cfg: SweepConfig) -> Iterator[tuple[int, ...]]:
    """The valid (m, n, r), sorted, with r reduced mod m: `_zm_triples` of each odd m.

    An even m has none: r and r - 1 are not both prime to it.  In paper mode
    only a prime m is taken, with n = m - 1, so no m above max_n + 1.  The
    triples are counted first, m by m, and the count stops one past the
    budget, so a sweep over it is refused before any triple is evaluated.
    The count is the number of triples, `dedupe` applied, except that an m
    scanned without a triple counts as one step; so a sweep that scans more
    odd m than the budget is refused before it counts at all.  A triple
    `dedupe` drops is never evaluated or cached.
    """
    max_m = cfg.bound("max_m")
    if cfg.paper_mode:
        max_n = cfg.bounds.get("max_n")
        moduli = range(1, (max_m if max_n is None else min(max_m, max_n + 1)) + 1, 2)

        def span(m: int) -> tuple[int, int]:
            return (m - 1, m - 1) if numtheory.is_prime(m) else (1, 0)

    else:
        max_n = cfg.bound("max_n")
        moduli = range(1, max_m + 1, 2)

        def span(m: int) -> tuple[int, int]:
            return 1, max_n

    count = len(moduli)  # each odd m is one step at least
    if count <= cfg.budget:
        count = 0
        for m in moduli:
            count += max(1, _zm_count(m, *span(m), cfg.fixed_r, cfg.dedupe))
            if count > cfg.budget:
                break
    if count > cfg.budget:
        raise BudgetError(
            f"sweep bounds describe more than {cfg.budget} tuples, "
            f"over the budget of {cfg.budget}"
        )
    return chain.from_iterable(_zm_triples(m, *span(m), cfg.fixed_r, cfg.dedupe) for m in moduli)


@functools.lru_cache(maxsize=1 << 12)
def _zm_prime(p: int) -> tuple[int, list[int], list[int]]:
    """(g, ds, qs) for an odd prime p: g the least primitive root mod p, ds
    the divisors d > 1 of p - 1, ascending, and qs the primes of p - 1."""
    factors = numtheory.factorize(p - 1)
    qs = [q for q, _ in factors]
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g, numtheory.divisors_from_factors(factors)[1:], qs


def _order_dividing(r: int, p: int, d: int, qs: list[int]) -> int:
    """The order of r mod p, given a multiple d of it that divides p - 1 and
    the primes qs of p - 1: d with every prime stripped that it can lose."""
    for q in qs:
        while d % q == 0 and pow(r, d // q, p) == 1:
            d //= q
    return d


def _zm_residues(m: int, factors, hi: int, fixed_r: int | None, dedupe: bool) -> dict[int, list]:
    """L -> the r mod m of order L that make (m, n, r) valid for some n <= hi.

    Such an r is fixed by its order vector (d_p) over the p^e || m: d_p > 1
    divides p - 1 (so r and r - 1 are units), and L = lcm(d_p) <= hi is
    prime to m (so a multiple n of L can be).  The residues of order d_p
    mod p^e are the powers h^(k (p - 1) / d_p), k prime to d_p, of
    h = g^(p^(e-1)) of order p - 1 (g a primitive root mod p), and a
    vector's prod phi(d_p) residues are joined by CRT.  With `dedupe` only
    the least generator of each <r> is kept: for every n it is the least
    r^k over k prime to n, one triple per isomorphism orbit.  Each vector's
    residues are ascending; several vectors of one L are not merged.
    """
    if fixed_r is not None:
        r = fixed_r % m
        if math.gcd(r, m) != 1:
            return {}
        ds = [numtheory.mult_order(r, p**e) for p, e in factors]
        order = math.lcm(*ds)
        if 1 in ds or order > hi or math.gcd(order, m) != 1:
            return {}
        if dedupe and any(pow(r, k, m) < r for k in _coprime_below(order)):
            return {}
        return {order: [r]}
    vectors = [(1, [0])]  # (lcm so far, CRT sums so far)
    for p, e in factors:
        q = p**e
        unit = m // q * pow(m // q, -1, q)  # 1 mod q, 0 mod m / q
        g, divisors, _ = _zm_prime(p)
        h = pow(g, q // p, q)
        choices = []
        for d in divisors:
            if d > hi:
                break
            if math.gcd(d, m) == 1:
                w = pow(h, (p - 1) // d, q)  # of order d
                ks = [1, *_coprime_below(d)]
                choices.append((d, [pow(w, k, q) * unit for k in ks]))
        vectors = [
            (lcm, [x + y for x in xs for y in ys])
            for order, xs in vectors
            for d, ys in choices
            if (lcm := math.lcm(order, d)) <= hi
        ]
    by_order: dict[int, list[int]] = {}
    for order, xs in vectors:
        rs = sorted(x % m for x in xs)
        by_order.setdefault(order, []).extend(_least_generators(rs, order, m) if dedupe else rs)
    return by_order


def _coprime_below(order: int) -> list[int]:
    """The k in [2, order) prime to order: r^k runs over the generators of <r>
    but r, for r of that order."""
    return [k for k in range(2, order) if math.gcd(k, order) == 1]


def _least_generators(rs: list[int], order: int, m: int) -> list[int]:
    """The r of `rs` (ascending, all of one order vector, of lcm `order`) that
    are the least generator of <r> mod m.  Each generator of <r> has r's
    vector, so the r not marked by a smaller one are those, and each marks
    its other generators."""
    powers = _coprime_below(order)
    seen: set[int] = set()
    kept = []
    for r in rs:
        if r not in seen:
            kept.append(r)
            seen.update(pow(r, k, m) for k in powers)
    return kept


def _zm_count(m: int, lo: int, hi: int, fixed_r: int | None, dedupe: bool) -> int:
    """The number of triples `_zm_triples` gives for m, summed per order L.

    The n of an r of order L are the multiples of L in [lo, hi] prime to m;
    as L is prime to m, they number sum over the squarefree s | m of
    mu(s) * (floor(hi / Ls) - floor((lo - 1) / Ls)).  Unless fixed, the r
    are counted, not listed: a vector (d_p) has prod phi(d_p) residues, and
    `dedupe` keeps one in phi(L), as the generators of <r> share r's vector.
    Without `dedupe` the sum over L is [gcd(m, n) = 1] * prod over p | m of
    (gcd(n, p - 1) - 1) summed over n.
    """
    if lo > hi:
        return 0
    factors = numtheory.factorize(m)
    if fixed_r is not None:
        sizes = {L: len(rs) for L, rs in _zm_residues(m, factors, hi, fixed_r, dedupe).items()}
    else:
        sizes = {1: 1}  # L -> the r of order L, over the primes so far
        primes: set[int] = set()  # the primes of each p - 1, so of each L
        for p, _ in factors:
            _, divisors, qs = _zm_prime(p)
            primes.update(qs)
            choices = [(d, _phi(d, qs)) for d in divisors if d <= hi and math.gcd(d, m) == 1]
            grown: dict[int, int] = {}
            for (L, size), (d, phi) in product(sizes.items(), choices):
                if (lcm := math.lcm(L, d)) <= hi:
                    grown[lcm] = grown.get(lcm, 0) + size * phi
            sizes = grown
        if dedupe:
            sizes = {L: size // _phi(L, primes) for L, size in sizes.items()}
    squarefree = [(1, 1)]
    for p, _ in factors:
        squarefree += [(s * p, -mu) for s, mu in squarefree]
    return sum(
        size * sum(mu * (hi // (L * s) - (lo - 1) // (L * s)) for s, mu in squarefree)
        for L, size in sizes.items()
    )


def _phi(n: int, primes) -> int:
    """Euler's phi of n, given primes that include every prime of n."""
    ps = [q for q in primes if n % q == 0]
    return n // math.prod(ps) * math.prod(q - 1 for q in ps)


def _zm_triples(
    m: int, lo: int, hi: int, fixed_r: int | None = None, dedupe: bool = False
) -> Iterable[tuple[int, ...]]:
    """The valid (m, n, r) with lo <= n <= hi, in (n, r) order; r = fixed_r mod m alone when given.

    (m, n, r) is valid iff gcd(m, n) = 1 and the order L of r divides n
    (`_zm_residues` lists the r by L).  Which L divide n depends on
    gcd(n, lcm of the L) only, so the sorted r of each such gcd are formed once.
    """
    if lo > hi:
        return ()
    by_order = _zm_residues(m, numtheory.factorize(m), hi, fixed_r, dedupe)
    if not by_order:
        return ()
    top, step = math.lcm(*by_order), math.gcd(*by_order)
    # gcd(n, top) -> the sorted r of every order dividing it; a hit stays in C
    row = functools.cache(
        lambda g: sorted(chain.from_iterable(rs for L, rs in by_order.items() if g % L == 0))
    )
    span = range(-(-lo // step) * step, hi + 1, step)
    ns = list(compress(span, map((1).__eq__, map(math.gcd, span, repeat(m)))))
    rows = map(row, map(math.gcd, ns, repeat(top)))
    return chain.from_iterable(map(zip, repeat(repeat(m)), map(repeat, ns), rows))


def _evaluate_zm(params: tuple[int, ...]) -> tuple[int, int, tuple[str, ...]]:
    triple = families.zm_validate(*params)
    if triple is None:
        raise ValueError(families.zm_invalid_reason(*params))
    return triple.order, families.zm_divisor_sum(triple), ()


# sigma(v) of a zm batch is read from one table while v < 2**_SIGMA_BITS
_SIGMA_BITS = 16


@functools.lru_cache(maxsize=None)  # at most _SIGMA_BITS + 1 tables, under 2**17 entries
def _sigma_table(bits: int) -> list[int]:
    """[0, sigma(1), ..., sigma(2**bits - 1)]: a sweep builds each size once."""
    return [0, *numtheory.divisor_sums(1, (1 << bits) - 1)]


def _zm_batch(batch: list[tuple[int, ...]]) -> tuple[list, list, list]:
    """`_evaluate_zm` of each (m, n, r) of an ascending batch of valid triples.

    D depends on r only through its order vector (d_p), d_p the order of r
    mod p for each p^e || m:

        D = sum over S of prod_{p in S} (sigma(p^e) - p^e) * prod_{p not in S} p^e
            * sigma(n / lcm_{p in S} d_p),

    S over the sets of primes of m; it is `zm_divisor_sum`'s sum over
    n1 | n with the product over p expanded.  So m is factored once per run
    of rows of one m, each r's vector is found once, and the 2^omega(m)
    terms (merged by their lcm) once per vector; D of a vector is then one
    column, by `map`, over the multiples of its lcm in the rows' range of n.
    """
    top = max(map(itemgetter(1), batch))
    if top.bit_length() <= _SIGMA_BITS:
        sigma = _sigma_table(top.bit_length()).__getitem__
    else:
        sigma = functools.cache(numtheory.divisor_sum)
    Ds: list[int] = []
    for m, rows in groupby(batch, itemgetter(0)):
        _, ns, rs = zip(*rows)
        factors = numtheory.factorize(m)
        primes = [(p, _zm_prime(p)[2]) for p, _ in factors]
        # any n of r will do: each d_p divides gcd(n, p - 1)
        vectors = {
            r: tuple(_order_dividing(r, p, math.gcd(n, p - 1), qs) for p, qs in primes)
            for r, n in dict(zip(rs, ns)).items()
        }
        powers = [(p**e, (p ** (e + 1) - 1) // (p - 1) - p**e) for p, e in factors]
        # vector -> {n: D} over every multiple n of its lcm in the rows' range
        tables = {}
        for vector in set(vectors.values()):
            step = math.lcm(*vector)
            vns = range(-(-ns[0] // step) * step, ns[-1] + 1, step)
            column = repeat(0)
            for L, c in _zm_terms(powers, vector):
                terms = map(mul, repeat(c), map(sigma, map(floordiv, vns, repeat(L))))
                column = map(add, column, terms)
            tables[vector] = dict(zip(vns, column))
        Ds += map(dict.__getitem__, map(tables.__getitem__, map(vectors.__getitem__, rs)), ns)
    return [m * n for m, n, _ in batch], Ds, [()] * len(batch)


def _zm_terms(powers: list[tuple[int, int]], vector: tuple[int, ...]) -> list[tuple[int, int]]:
    """(L, c) pairs with D = sum of c * sigma(n / L): the subset sum of `_zm_batch`
    for prime powers (p^e, sigma(p^e) - p^e) and orders d_p, merged by L."""
    sums = {1: 1}
    for (q, extra), d in zip(powers, vector):
        grown: dict[int, int] = {}
        for L, c in sums.items():
            grown[L] = grown.get(L, 0) + c * q
            L = math.lcm(L, d)
            grown[L] = grown.get(L, 0) + c * extra
        sums = grown
    return list(sums.items())


def _affine_row(q: int, total: int, prime: bool) -> tuple[int, int, tuple[str, ...]]:
    """(order, D, notes) of Aff(q) with D = total; `prime` says whether q is prime."""
    order = q * (q - 1)
    notes = () if prime else (NOTE_FORMULA_ONLY,)
    if abs(total - 2 * order) == 1:
        # the classical statement labels the quasi- and almost-Leinster affine
        # cases the other way around; flag every record where they differ
        notes += (NOTE_LABEL_DIFFERS,)
    return order, total, notes


def _evaluate_affine(params: tuple[int, ...]) -> tuple[int, int, tuple[str, ...]]:
    (q,) = params
    return _affine_row(q, families.affine_divisor_sum(q), numtheory.is_prime(q))


def _affine_batch(batch: list[tuple[int, ...]]) -> tuple[tuple, ...]:
    """`_evaluate_affine` of each (q,) of an ascending batch of prime powers,
    from one `numtheory.divisor_sums` of [q_first - 1, q_last]: sigma(q - 1)
    gives D, and q is prime when sigma(q) = q + 1."""
    qs = [q for (q,) in batch]
    lo = qs[0] - 1
    sums = numtheory.divisor_sums(lo, qs[-1])
    return tuple(
        zip(*(_affine_row(q, 1 + q * sums[q - 1 - lo], sums[q - lo] == q + 1) for q in qs))
    )


def _window_batch(multiple: int, sums: Callable[[int, int], list[int]]):
    """The `evaluate_batch` of a family of order multiple * n, given its D
    column of a window of n (`sums(lo, hi)`): an ascending batch of (n,)
    takes the window from its first to its last n, every row without notes."""

    def evaluate_batch(batch: list[tuple[int, ...]]) -> tuple[list, list, list]:
        ns = [n for (n,) in batch]
        lo = ns[0]
        window = sums(lo, ns[-1])
        return [multiple * n for n in ns], [window[n - lo] for n in ns], [()] * len(ns)

    return evaluate_batch


def _oracle():
    """The oracle module, imported on first use: it loads numpy, which no closed form needs."""
    from . import oracle

    return oracle


def _build_pq(params: tuple[int, ...]) -> FiniteGroup:
    """The non-abelian group of order pq, as ZM(q, p, r) for r of order p mod q."""
    p, q = params
    for r in range(2, q):
        if pow(r, p, q) == 1:
            return _oracle().build_zm(q, p, r)
    raise RuntimeError(f"no element of order {p} modulo {q} (bug)")


def _count(key: str) -> Callable[[SweepConfig], int]:
    return lambda cfg: cfg.bounds.get(key, 1)


def _pq_step_count(cfg: SweepConfig) -> int:
    """A bound on the steps of `_enumerate_pq`: (max_q - 1) * ceil(1 + ln P).

    P = min(max_p, max_q - 1).  The walk takes one step per p <= P, at most
    max_q - 1 in all, and a prime p tries at most (max_q - 1) / p values of
    q; so it takes at most (max_q - 1) times the harmonic number H_P, and
    H_P <= 1 + ln P.  The product is formed in integers, so no bound is too
    large for it.
    """
    max_q = cfg.bounds.get("max_q", 1)
    top = max(1, min(cfg.bounds.get("max_p", max_q), max_q - 1))
    return (max_q - 1) * math.ceil(1 + math.log(top))


# Every family, in the order the CLI lists them.  Evaluators, builders and
# `up_to` look the module functions up at call time, so wrapping them (as the
# bench tracer does) is seen; builders import the oracle when first called.
FAMILY: dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "cyclic", ("max_n",), 1, _n_count(1), _n_range(1),
            lambda p: (p[0], numtheory.divisor_sum(p[0]), ()),
            lambda p: _oracle().build_cyclic(p[0]),
            lambda n: zip(range(1, n + 1)), lambda p: f"C{p[0]}",
            evaluate_batch=_window_batch(1, lambda lo, hi: numtheory.divisor_sums(lo, hi)),
            recompute=True,
        ),
        Family(
            "zm", ("max_m", "max_n"), 3, None, _enumerate_zm,
            _evaluate_zm,
            lambda p: _oracle().build_zm(*p),
            lambda n: (t for m in range(3, n // 2 + 1, 2) for t in _zm_triples(m, 1, n // m)),
            lambda p: "ZM({},{},{})".format(*p),
            evaluate_batch=_zm_batch,
        ),
        Family(
            "affine", ("max_q",), 1, _count("max_q"), lambda cfg: _prime_powers(cfg.bound("max_q")),
            _evaluate_affine,
            lambda p: _oracle().build_affine_prime(p[0]) if numtheory.is_prime(p[0]) else None,
            lambda n: _prime_powers((1 + math.isqrt(4 * n + 1)) // 2),  # q(q - 1) <= n
            lambda p: f"Aff({p[0]})",
            evaluate_batch=_affine_batch,
        ),
        Family(
            "dihedral", ("max_n", "min_n"), 1, _n_count(1), _n_range(1),
            lambda p: (2 * p[0], families.dihedral_divisor_sum(p[0]), ()),
            lambda p: _oracle().build_generalized_dihedral(p),
            lambda n: zip(range(1, n // 2 + 1)), lambda p: f"D{2 * p[0]}",
            evaluate_batch=_window_batch(2, lambda lo, hi: families.dihedral_divisor_sums(lo, hi)),
            recompute=True,
        ),
        Family(
            "gen-dihedral", ("max_a",), None, None, _enumerate_gen_dihedral,
            lambda p: (2 * math.prod(p), families.generalized_dihedral_divisor_sum(p), ()),
            lambda p: _oracle().build_generalized_dihedral(p),
            lambda n: (c for c in families.iter_abelian_types(n // 2) if len(c) > 1),
            lambda p: "Dih({})".format("x".join(f"C{d}" for d in p)),
            evaluate_batch=lambda batch: (
                [2 * math.prod(p) for p in batch],
                families.generalized_dihedral_divisor_sums(batch), [()] * len(batch),
            ),
        ),
        Family(
            "dicyclic", ("max_n", "min_n"), 1, _n_count(2), _n_range(2),
            lambda p: (4 * p[0], families.dicyclic_divisor_sum(p[0]), ()),
            lambda p: _oracle().build_generalized_dicyclic([2 * p[0]], p[0]),
            lambda n: zip(range(2, n // 4 + 1)), lambda p: f"Dic{4 * p[0]}",
            evaluate_batch=_window_batch(4, lambda lo, hi: families.dicyclic_divisor_sums(lo, hi)),
            recompute=True,
        ),
        Family(
            "pq", ("max_q", "max_p"), 2, _pq_step_count, _enumerate_pq,
            lambda p: (p[0] * p[1], families.pq_divisor_sum(*p), ()),
            _build_pq, _pq_up_to, lambda p: "G({},{})".format(*p),
            evaluate_batch=lambda batch: (
                [p * q for p, q in batch], [1 + q + p * q for p, q in batch], [()] * len(batch)
            ),
            recompute=True,
        ),
    )
}
FAMILIES = tuple(FAMILY)


def _classified(orders, Ds, notes) -> tuple[list[GroupKind], list | tuple]:
    """The class column of evaluated rows, by `families.classify_kinds` (the
    one class rule), and their notes column, a row of order 1 given the edge note."""
    if 1 in orders:
        notes = [n + (NOTE_EDGE,) if order == 1 else n for order, n in zip(orders, notes)]
    return families.classify_kinds(Ds, orders), notes


def _evaluate_batch(family: str, batch: list[tuple[int, ...]]) -> Chunk:
    """The rows of `batch`, tuples of one family: a sweep's evaluation path.

    The family is looked up once per batch, and its `evaluate_batch`
    evaluates the batch by one call, as columns.  The chunk is then classified
    and noted a column at a time (`_classified`, which `run_classify`
    shares).  Its lines are left to the caller (None), so a sweep without a
    cache encodes only the rows it keeps (`_with_lines`).  The arity is not
    checked here: an enumerator gives the family's, and `run_classify`
    checks a caller's.
    """
    try:
        fam = FAMILY[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    if not batch:
        orders, Ds, notes = (), (), ()
    else:
        orders, Ds, notes = fam.evaluate_batch(batch)
    kinds, notes = _classified(orders, Ds, notes)
    return Chunk(family, batch, orders, Ds, kinds, notes, None)


def _with_lines(chunk: Chunk) -> Chunk:
    """`chunk`, its lines encoded together (`_encode`) if it has none yet."""
    if chunk.lines is None:
        chunk.lines = _encode(chunk.family, *chunk.columns()[:-1])
    return chunk


# the start of a cache line of any family whose name needs no escape
_ANY_FAMILY_PREFIX = re.compile(rf'{{"family": "{_CHARS}", ')


class _Cache:
    """A sweep's resume file, a prefix checkpoint: walked in step with the
    sweep a chunk at a time (`walk`), read only as far as it reached when
    opened, holding no line between chunks, and appended per chunk.

    Blank lines and other families' lines are skipped unread.  Any other
    line that is not one `_encode` writes, of the class its own D and order
    give, is skipped with a warning (`_fault`), bytes not UTF-8 included.
    Every other line is taken, as written, only while it holds the next
    params asked for: the first that does not ends the prefix, and nothing
    more is read or appended.  A cache that cannot be read is dropped after
    one warning; one that cannot be written is no longer appended to.
    """

    def __init__(self, path: Path, name: str) -> None:
        self.path: Path | None = path  # None once appends stop
        self._name = name
        self._own = f'{{"family": {_json_str(name)}, '
        self._lineno = 0  # lines passed
        self._fh = None  # None once reads stop
        self._end = 0  # the file's size when opened
        try:
            self._fh = path.open("rb")
            self._end = os.fstat(self._fh.fileno()).st_size
        except FileNotFoundError:
            pass
        except OSError as exc:
            self.close(exc)

    def close(self, failed: Exception | None = None, appending: bool = False) -> None:
        """Stop reads, and appends unless `appending`; warn of a read that `failed`."""
        if failed is not None:
            print(f"warning: cache read failed ({failed}); sweep continues", file=sys.stderr)
        if self._fh is not None:
            self._fh.close()
        self._fh, self.path = None, self.path if appending else None

    def walk(self, batch: list[tuple[int, ...]], lines: list[str] | None) -> tuple[int, Chunk]:
        """How many leading params of `batch` the prefix holds, passed, and
        the rows decoded for them.  A recompute family compares its chunk's
        `lines` with the file's bytes (`_compared`), any other decodes the
        file's next lines in one regex pass (`_decoded`), _PIECE lines at a
        time.  Where that fails, the next line is judged alone (`_judge`),
        and the fast path resumes from one line, doubling: a file of many
        faults costs linear time."""
        taken, rows, size = 0, Chunk(self._name, [], [], [], [], [], []), _PIECE
        try:
            while taken < len(batch) and self._fh is not None:
                ask = batch[taken : taken + size]
                if lines is None:
                    passed = self._decoded(ask, rows)
                else:
                    passed = self._compared(lines[taken : taken + size])
                taken += passed
                if passed == len(ask):
                    size = min(2 * size, _PIECE)
                elif (row := self._judge(batch[taken])) is not None:
                    taken, size = taken + 1, 1
                    rows.extend(row)
        except OSError as exc:
            self.close(exc)
        return taken, rows

    def _compared(self, lines: list[str]) -> int:
        """How many leading `lines` equal the file's next lines as bytes, passed
        (`_encode` writes ASCII)."""
        data = "\n".join(lines + [""]).encode()
        start = self._fh.tell()
        read = self._fh.read(min(len(data), self._end - start))
        done = len(lines)
        if read != data:
            same = len(os.path.commonprefix([read, data]))
            self._fh.seek(start + data.rfind(b"\n", 0, same) + 1)
            done = data.count(b"\n", 0, same)
        self._lineno += done
        return done

    def _decoded(self, batch: list[tuple[int, ...]], rows: Chunk) -> int:
        """How many of the file's next len(batch) lines (fewer where it ends)
        are passed, their rows added to `rows`: all if they are canonical
        lines of this family holding the params of `batch`, else none."""
        start = self._fh.tell()
        data = b"".join(islice(self._fh, len(batch)))[: self._end - start]
        text = data.decode("utf-8", "replace")
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()  # the text ends with a newline, or is empty
        decoded = _decode_canonical(self._name, text, lines) if lines else None
        if decoded is None or decoded.params != batch[: len(lines)]:
            self._fh.seek(start)
            return 0
        self._fh.seek(start + len(data))
        self._lineno += len(lines)
        rows.extend(decoded)
        return len(lines)

    def _judge(self, params: tuple[int, ...]) -> Chunk | None:
        """The row of the next line taken if it holds `params`, the lines
        before it skipped as the class docstring says; else None, and reads
        stop (at the file's end) or reads and appends (at other params)."""
        while raw := self._fh.readline(self._end - self._fh.tell()):
            self._lineno += 1
            line = raw.decode("utf-8", "replace").removesuffix("\n")
            other = not line.startswith(self._own) and _ANY_FAMILY_PREFIX.match(line)
            if other or not line.strip():
                continue
            row = _decode_canonical(self._name, line, [line])
            if row is None:
                fault = f"skipping corrupt cache line {self._lineno}: {_fault(line)}"
                print(f"warning: {fault}", file=sys.stderr)
            elif row.params == [params]:
                return row
            else:
                break
        self.close(appending=not raw)
        return None

    def append(self, lines: list[str]) -> None:
        """Append one finished chunk's lines; stop appending (after a warning) on failure."""
        if self.path is None or not lines:
            return
        data = "\n".join(lines + [""]).encode()
        try:
            with self.path.open("a+b") as fh:
                end = fh.seek(0, os.SEEK_END)
                if end:
                    fh.seek(end - 1)
                    if fh.read(1) != b"\n":  # a torn last line is ended first
                        data = b"\n" + data
                fh.write(data)
        except OSError as exc:
            print(f"warning: cache write failed ({exc}); sweep continues", file=sys.stderr)
            self.path = None


def _fault(line: str) -> str | None:
    """Why `line` is not a cache line, or None: a cache line is one `_encode`
    writes, of a known class, with D and order of at least 1 that give it."""
    match = _CANONICAL_LINE.fullmatch(line)
    if match is None or match[5] not in _KINDS:
        return "not a line a sweep writes"
    try:
        order, D, value = int(match[3]), int(match[4]), match[5]
        if _KINDS[value] is not families.classify_kind(D, order):
            return f"class {value!r} disagrees with D = {D} and order {order}"
    except ValueError as exc:  # D or order below 1, or more digits than int() takes
        return str(exc)
    return None


def _decode_canonical(family: str, text: str, lines: list[str]) -> Chunk | None:
    """The rows of `lines` (not empty), decoded together when each is a
    canonical line of `family`, keeping their lines; None when any line is
    not one, or names a class unknown or not the one its D and order give:
    the caller then judges lines alone (`_Cache._judge`)."""
    rows = _CANONICAL_LINE.findall(text)
    if len(rows) != len(lines):
        return None
    names, params, orders, Ds, kinds, notes = zip(*rows)
    kinds = list(map(_KINDS.get, kinds))
    if names.count(family) != len(lines) or None in kinds:
        return None
    try:
        orders, Ds = list(map(int, orders)), list(map(int, Ds))
        try:
            params = list(zip(map(int, params)))
        except ValueError:  # some row has other than one parameter
            params = [tuple(map(int, p.split(", "))) if p else () for p in params]
        if families.classify_kinds(Ds, orders) != kinds:
            return None
    except ValueError:  # D or order below 1, or more digits than int() takes
        return None
    if any(notes):
        notes = [tuple(n[1:-1].split('", "')) if n else () for n in notes]
    else:
        notes = [()] * len(lines)
    return Chunk(family, params, orders, Ds, kinds, notes, lines)


def _kept(chunk: Chunk, wanted: frozenset[int] | None, include_edge: bool) -> Chunk:
    """The rows of `chunk` of a class in `wanted` (the classes' ids; None for
    all), less the edges unless `include_edge`.

    Both tests run once per chunk, on the class and notes columns.  A class
    is matched by identity: `kind in classes` would hash each member by
    `Enum.__hash__`, a Python-level call.
    """
    keep = None if wanted is None else list(map(wanted.__contains__, map(id, chunk.kinds)))
    if not include_edge and any(chunk.notes):
        plain = [NOTE_EDGE not in n for n in chunk.notes]
        keep = plain if keep is None else list(map(and_, keep, plain))
    if keep is None or all(keep):
        return chunk
    return Chunk(
        chunk.family,
        *(None if column is None else list(compress(column, keep)) for column in chunk.columns()),
    )


def sweep_chunks(cfg: SweepConfig) -> Iterator[Chunk]:
    """Yield the kept rows of every valid tuple in bounds, a chunk at a time, sorted by params.

    Per chunk of _CHUNK tuples, with a cache: the chunk walks the file's
    prefix (`_Cache.walk`), a recompute family having evaluated it first,
    any other evaluating only the params the prefix lacks.  The rows past
    the file's end are appended to it.  The filters then run on the chunk's
    columns, and the chunk is yielded however few rows it keeps.
    """
    family = FAMILY[cfg.family]
    raw = family.tuple_count(cfg) if family.tuple_count is not None else None
    if raw is not None and raw > cfg.budget:
        raise BudgetError(
            f"sweep bounds describe up to {raw} tuples, over the budget of {cfg.budget}"
        )
    wanted = None if cfg.classes is None else frozenset(map(id, cfg.classes))
    params = iter(family.enumerate(cfg))
    path = cfg.cache_path
    with nullcontext() if path is None else closing(_Cache(Path(path), cfg.family)) as cache:
        for batch in iter(lambda: list(islice(params, _CHUNK)), []):
            if cache is None:
                chunk = _evaluate_batch(cfg.family, batch)
            elif family.recompute:
                chunk = _with_lines(_evaluate_batch(cfg.family, batch))
                taken, _ = cache.walk(batch, chunk.lines)
                cache.append(chunk.lines[taken:])
            else:
                taken, chunk = cache.walk(batch, None)
                if taken < len(batch):
                    rest = _with_lines(_evaluate_batch(cfg.family, batch[taken:]))
                    cache.append(rest.lines)
                    chunk.extend(rest)
            yield _with_lines(_kept(chunk, wanted, cfg.include_edge))


def run_sweep(cfg: SweepConfig) -> Iterator[SearchRecord]:
    """Yield classified records for every valid tuple in bounds, sorted by params.

    The records of `sweep_chunks`, a chunk's worth built at a time; a
    record encodes its line again when asked (`to_json`).
    """
    for chunk in sweep_chunks(cfg):
        yield from chunk.records()


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
    except numtheory.OrderCapError:
        return None
    if group is None:
        return None
    oracle_total = _oracle().group_divisor_sum(group)
    if oracle_total != record.D:
        raise OracleMismatchError(
            f"{record.family}{record.params}: formula D = {record.D} "
            f"but oracle D = {oracle_total}"
        )
    return True


def run_classify(family: str, params: list[int] | tuple[int, ...]) -> SearchRecord:
    """Classify one instance in closed form; `oracle_crosscheck` checks the result."""
    fam = FAMILY.get(family)
    if fam is None:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if fam.arity is not None and len(params) != fam.arity:
        raise ValueError(
            f"{family} takes {fam.arity} parameter{'s' if fam.arity != 1 else ''}, "
            f"got {len(params)}"
        )
    params = tuple(params)
    order, total, notes = fam.evaluate(params)
    (kind,), (notes,) = _classified((order,), (total,), (notes,))
    return SearchRecord(family, params, order, total, kind, notes)
