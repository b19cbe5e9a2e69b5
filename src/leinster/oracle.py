"""Brute-force finite-group engine.

Groups are dense Cayley tables over elements 0..order-1 with the identity at
index 0, stored as C-contiguous uint16 arrays.  The module provides builders
for the group families treated elsewhere in the package, quotients,
nilpotency, and the normal-subgroup order sum that the closed-form family
code is checked against.

Two independent enumerators find subgroups:

* the full lattice (`all_subgroups`): every subgroup by cyclic extension
  (each H extended by the x in its normalizer with xH of prime order),
  without any closure, one subgroup order at a time in one batch of array
  operations, each flagged normal when its normalizer is the whole group.
  It covers the solvable groups and every group of order below 120;
* the normal lattice (`_normal_lattice`, read by `group_divisor_sum`,
  `is_nilpotent` and `normal_quotients`): normal closures of the conjugacy
  classes, closed under products, without the full lattice.  The normal
  subgroups of one order are joined in one batch of array operations, one
  order after another.

Both report a subgroup as a bitmask, the sum of 2**e over its elements e.
On every table they agree on the normal subgroups; the tests hold them to
that.  Each distinct table is validated once per process, keyed by the same
blake2b digest that keys the normal-lattice cache.  The full lattice is not
cached: no command asks for it twice on one table.

Quotients are batched like the joins: `normal_quotients` (every G/N of a
group) numbers the cosets of the normal subgroups and gathers their quotient
tables one subgroup order at a time, in one batch of array operations per
order.

Orders above a configurable cap (default 512, override with the
LEINSTER_ORACLE_CAP environment variable, at most 65,536 so that element
indices fit in 16 bits) are refused outright; the oracle never degrades to
sampling or partial answers.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
from collections.abc import Sequence

import numpy as np

from . import numtheory
from .numtheory import OrderCapError

__all__ = [
    "DEFAULT_ORDER_CAP",
    "ORDER_CAP_ENV",
    "FiniteGroup",
    "OrderCapError",
    "all_subgroups",
    "build_abelian",
    "build_affine_prime",
    "build_cyclic",
    "build_direct_product",
    "build_generalized_dicyclic",
    "build_generalized_dihedral",
    "build_zm",
    "group_divisor_sum",
    "is_nilpotent",
    "normal_quotients",
    "order_cap",
    "order_two_elements",
]

DEFAULT_ORDER_CAP = 512
ORDER_CAP_ENV = "LEINSTER_ORACLE_CAP"

# Tables hold element indices as uint16, so no order above 2**16 is allowed.
_INDEX = np.uint16
_CAP_CEILING = 1 << 16

# Normal-subgroup bitmasks keyed by table digest, sorted by (order, bitmask):
# D(G), normal_quotients and is_nilpotent read these, not the full lattice.
_NORMAL_CACHE: dict[bytes, tuple[int, ...]] = {}

# Generating sets of the tables that passed validation, under the same digest:
# verify rebuilds the same quotient and product tables thousands of times, and
# each distinct table is validated only the first time it is built.
_VALIDATED: dict[bytes, tuple[int, ...]] = {}

# Group orders whose factorization and divisors are kept: `verify --max-order
# 100` asked for those of its 100 orders about 1,200 times.
_ORDER_CACHE_SIZE = 256

# Cells one batch of `_normal_lattice` joins or of `_quotients` may hold in a
# temporary: the subgroups of one order are taken in slices that stay under it.
_BATCH_CELLS = 1 << 18


def order_cap() -> int:
    raw = os.environ.get(ORDER_CAP_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{ORDER_CAP_ENV} must be a positive integer, got {raw!r}")
    if cap > _CAP_CEILING:
        raise ValueError(
            f"{ORDER_CAP_ENV} must be a positive integer at most {_CAP_CEILING} "
            f"(element indices are 16-bit), got {raw!r}"
        )
    return cap


def _check_cap(order: int) -> None:
    if order < 1:
        raise ValueError(f"group order must be positive, got {order}")
    cap = order_cap()
    if order > cap:
        raise OrderCapError(f"group order {order} exceeds the oracle cap {cap}")


def _closure(table: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Close the membership row under the table's product, in place; returns it.

    Grows the row by pairwise-product rounds until a round adds nothing, or
    until every element is reached (then without a confirming round).  No
    associativity is assumed, so validation can use it too.
    """
    n = table.shape[0]
    count = int(member.sum())
    while count < n:
        idx = np.flatnonzero(member)
        member[table[idx[:, None], idx].reshape(-1)] = True
        new_count = int(member.sum())
        if new_count == count:
            break
        count = new_count
    return member


def _powers(table: np.ndarray) -> np.ndarray:
    """Powers of every element: row j - 1 holds x^j in column x, for j = 1..k.

    Built by doubling, x^(k+j) = x^j x^k, so it takes log2(exponent) gathers;
    k is the first power of two at which every column has met the identity,
    so k >= the exponent and column x lists all of <x>.
    """
    power = np.arange(table.shape[0], dtype=table.dtype)[None, :]
    while not (power == 0).any(axis=0).all():
        power = np.concatenate([power, table[power, power[-1]]])
    return power


def _words(rows: np.ndarray) -> np.ndarray:
    """Boolean rows as bitmask words: bit y of a row is bit y % 64 of word y // 64."""
    r, n = rows.shape
    padded = np.zeros((r, 64 * -(-n // 64)), dtype=bool)
    padded[:, :n] = rows
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, which): the distinct rows of a C-contiguous 2-D array are
    rows[first], and row i equals row first[which[i]]."""
    if rows.shape[0] == 1:
        return np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    _, first, which = np.unique(
        rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel(),
        return_index=True,
        return_inverse=True,
    )
    return first, which.reshape(-1)


def _cosets(table: np.ndarray, elems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right cosets N_i y of a batch of subgroups of one order; elems[i] lists N_i.

    The coset N_i y is the column y of the rows of N_i, and its smallest
    element is its representative.  Returns (coset, reps): reps[i] holds the
    representatives of the cosets of N_i in increasing order, so reps[i, 0] = 0
    stands for N_i, and coset[i, y] is the position in reps[i] of the coset
    holding y.
    """
    b = elems.shape[0]
    rep_of = table[elems].min(axis=1)
    is_rep = rep_of == np.arange(table.shape[0])
    coset = (np.cumsum(is_rep, axis=1) - 1)[np.arange(b)[:, None], rep_of]
    return coset, is_rep.nonzero()[1].reshape(b, -1)


def _find_generators(arr: np.ndarray) -> list[int]:
    """Greedy generating set under the table's operation (no associativity assumed)."""
    n = arr.shape[0]
    member = np.zeros(n, dtype=bool)
    member[0] = True
    gens: list[int] = []
    for x in range(1, n):
        if member[x]:
            continue
        gens.append(x)
        member[x] = True
        if _closure(arr, member).all():
            break
    return gens


def _check_associativity(arr: np.ndarray, gens: tuple[int, ...]) -> None:
    """Exact associativity check via Light's test.

    A table with identity is associative iff (a*g)*c == a*(g*c) for all a, c
    and g in a generating set: the elements g for which all such triples hold
    are closed under the table's product, so covering a generating set covers
    the whole group.
    """
    for g in gens:
        if not np.array_equal(arr[:, arr[g]], arr[arr[:, g]]):
            raise ValueError("table is not associative")


class FiniteGroup:
    """Finite group as an order x order multiplication table.

    table[i, j] is the index of the product of elements i and j; index 0 is
    the identity.  The table is a read-only, C-contiguous uint16 array that
    the group owns: the input is copied, never kept, so the caller cannot
    change it later; the entries are range-checked before they are narrowed
    to it.  Construction validates the Latin-square property and
    associativity, so downstream code can trust the table blindly.  Each
    distinct table is validated once per process: the generating set found
    then is kept under the table's digest (the key of the normal-lattice
    cache), and a later build of an equal table reuses it.  A table that
    fails validation is not kept and raises every time it is built.
    """

    __slots__ = (
        "order",
        "table",
        "_gens",
        "_inv",
        "_orders",
        "_digest",
    )

    def __init__(self, table):
        raw = np.asarray(table)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValueError(f"multiplication table must be square, got {raw.shape}")
        n = int(raw.shape[0])
        _check_cap(n)
        # range-checked before narrowing, which would truncate or wrap
        if raw.dtype.kind not in "iu" or raw.min() < 0 or raw.max() >= n:
            raise ValueError("table entries must be element indices in [0, order)")
        # always a copy: a caller's array would stay writable under the digest
        arr = np.array(raw, dtype=_INDEX, order="C")
        h = hashlib.blake2b(digest_size=16)
        h.update(n.to_bytes(4, "little"))
        h.update(arr)
        digest = h.digest()
        gens = _VALIDATED.get(digest)
        if gens is None:
            idx = np.arange(n, dtype=_INDEX)
            if not (np.array_equal(arr[0], idx) and np.array_equal(arr[:, 0], idx)):
                raise ValueError("index 0 must act as the identity")
            if not (
                np.array_equal(np.sort(arr, axis=1), np.broadcast_to(idx, arr.shape))
                and np.array_equal(
                    np.sort(arr, axis=0), np.broadcast_to(idx[:, None], arr.shape)
                )
            ):
                raise ValueError("table is not a Latin square")
            gens = tuple(_find_generators(arr))
            _check_associativity(arr, gens)
            _VALIDATED[digest] = gens
        arr.setflags(write=False)
        self.order = n
        self.table = arr
        self._gens = gens
        self._inv = None
        self._orders = None
        self._digest = digest

    @property
    def rows(self) -> list[list[int]]:
        """The table as nested Python lists, built anew on every access."""
        return self.table.tolist()

    def inverses(self) -> list[int]:
        if self._inv is None:
            self._inv = np.argmax(self.table == 0, axis=1).tolist()
        return self._inv

    def element_orders(self) -> list[int]:
        if self._orders is None:
            # the order of x is the first j >= 1 with x^j = 1
            self._orders = (np.argmax(_powers(self.table) == 0, axis=0) + 1).tolist()
        return self._orders

    def is_cyclic(self) -> bool:
        return self.order == 1 or self.order in self.element_orders()

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def generators(self) -> list[int]:
        """A small generating set (found greedily during validation)."""
        return list(self._gens)

    def digest(self) -> bytes:
        """blake2b digest of the order and the table, fixed at construction."""
        return self._digest

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _rows(keys: list[bytes], n: int) -> np.ndarray:
    """Packed bitmask keys (little-endian bytes) as boolean membership rows."""
    packed = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), -1)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _register(
    found: set[bytes], by_order: dict[int, list[bytes]], words: np.ndarray, sizes: np.ndarray
) -> None:
    """Add each bitmask of `words` not yet in `found` to it, and to by_order[size]."""
    raw = words.astype("<u8", copy=False).tobytes()
    width = words.shape[1] * 8
    keys = [raw[i : i + width] for i in range(0, len(raw), width)]
    size_of = dict(zip(keys, sizes.tolist()))
    new = size_of.keys() - found
    found.update(new)
    for key in new:
        by_order.setdefault(size_of[key], []).append(key)


@functools.lru_cache(maxsize=_ORDER_CACHE_SIZE)
def _order_facts(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The factorization of a group order n and its divisors in increasing
    order, from one `factorize` call."""
    factors = numtheory.factorize(n)
    return factors, tuple(numtheory.divisors_from_factors(factors))


def all_subgroups(group: FiniteGroup) -> tuple[tuple[int, bool], ...]:
    """Every subgroup once, as (bitmask, is_normal), sorted by (order, bitmask).

    The bitmask is the sum of 2**e over the elements e, so within one order
    the subgroups are compared by their largest elements first, not by the
    ascending element lists: in Dih(C2 x C2), {0, 3, 5, 6} comes before
    {0, 3, 4, 7}.

    Cyclic extension (J. Neubüser, Numer. Math. 2, 1960), batched like
    `_normal_lattice`.  A solvable K > 1 has a normal subgroup H of prime
    index p, and then K = H ∪ Hx ∪ … ∪ Hx^(p-1) for any x in K outside H.
    Conversely, for x outside H in its normalizer N(H) with x^p in H, that
    union H<x> is a subgroup of order p|H|.  So from {1}, the found
    subgroups are extended one order d at a time, in increasing order, in
    slices that keep every temporary under about _BATCH_CELLS cells
    (`_extend_batch`); when d is reached, every solvable subgroup of order d
    has been found from one of order d/p.  No closure is run.  H is normal
    iff N(H) = G, so the normal flags come with the extension.

    This reaches exactly the solvable subgroups, so G is added at the end.
    Below order 120 every proper subgroup has order below 60 and is
    solvable, so the lattice is whole even for a non-solvable G (A5 has 59
    subgroups).  A G of order 120 or more that is not reached raises
    ValueError: it is not solvable, and a non-solvable proper subgroup (the
    A5 in S5) would be missed.
    """
    n = group.order
    power = _powers(group.table)
    # x^p for each prime p dividing |G|: for x in N(H) outside H, one of them
    # lies in H iff xH has prime order in N(H)/H
    factors, divisors = _order_facts(n)
    steps = power[[p - 1 for p, _ in factors]].T
    inv = np.asarray(group.inverses(), dtype=np.intp)
    width = 8 * -(-n // 64)  # bytes per bitmask key
    found = {(1).to_bytes(width, "little")}
    by_order = {1: list(found)}
    normal: dict[bytes, bool] = {}
    for d in divisors[:-1]:
        keys = by_order.pop(d, [])
        step = max(1, _BATCH_CELLS // (n * max(d, n // d)))
        for start in range(0, len(keys), step):
            batch = keys[start : start + step]
            flags, words, sizes = _extend_batch(group.table, _rows(batch, n), d, inv, power, steps)
            normal.update(zip(batch, flags.tolist()))
            _register(found, by_order, words, sizes)
    whole = ((1 << n) - 1).to_bytes(width, "little")
    if whole not in found and n >= 120:
        raise ValueError(
            "the full subgroup lattice needs a solvable group or an order "
            f"below 120; this group of order {n} is not solvable"
        )
    normal[whole] = True
    masks = ((int.from_bytes(key, "little"), flag) for key, flag in normal.items())
    return tuple(sorted(masks, key=lambda item: (item[0].bit_count(), item[0])))


def _extend_batch(
    table: np.ndarray,
    subs: np.ndarray,
    d: int,
    inv: np.ndarray,
    power: np.ndarray,
    steps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normal flags of subgroups H_i of order d, and their cyclic extensions.

    `subs` holds one membership row per H_i.  x normalizes H_i iff x^-1 h x
    is in H_i for every h in H_i; N(H_i) is a union of cosets of H_i, so
    this is tested on the least element of each coset only, in one gather
    over the batch.  One x per coset outside H_i is tried, the coset's least
    element, and kept when it normalizes H_i and one of steps[x] lies in
    H_i.  H_i<x> is the union of the cosets of H_i that hold a power of x.
    Returns the flags N(H_i) = G and the bitmask words and orders of the
    extensions.
    """
    b, n = subs.shape
    batch = np.arange(b)[:, None]
    elems = subs.nonzero()[1].reshape(b, d)
    coset, reps = _cosets(table, elems)
    conj = table[table[inv[reps][:, None, :], elems[:, :, None]], reps[:, None, :]]
    norm = subs[batch[:, :, None], conj].all(axis=1)
    keep = norm[:, 1:] & subs[batch[:, :, None], steps[reps[:, 1:]]].any(axis=2)
    which, col = keep.nonzero()
    x = reps[which, col + 1]
    pair = np.arange(x.size)[:, None]
    hit = np.zeros((x.size, n // d), dtype=bool)
    hit[pair, coset[which[:, None], power[:, x].T]] = True
    return norm.all(axis=1), _words(hit[pair, coset[which]]), d * hit.sum(axis=1)


def _normal_lattice(group: FiniteGroup) -> tuple[int, ...]:
    """Bitmasks of all normal subgroups, sorted by (order, bitmask).

    Independent of `all_subgroups` (A. Hulpke, "Computing normal
    subgroups", ISSAC 1998):

    * closures: the normal closure ncl(x) of every element x at once.  The
      powers of x come from the doubled power table (`_powers`).  The union
      of the <y> over the conjugacy class of x holds z iff the class of z
      holds a power of x, so it is one scatter and one gather over the
      table; in an abelian table it is already <x>, otherwise each distinct
      union is closed under products;
    * products: from {1}, each found normal N is joined with ncl(x) for one
      x per coset of N outside N.  N*ncl(x) is the union of the N-cosets that
      meet ncl(x), and it is a subgroup because both factors are normal, so
      no closure is run.

    This finds every normal M: M is the product of the normal closures of its
    elements, and N*ncl(n*x) = N*ncl(x) for n in N.  A join with x outside N
    is larger than N, so the normal subgroups are joined one order at a time,
    in increasing order: when an order d is reached, every normal subgroup of
    order d is already found, and all of them are joined in one batch
    (`_join_batch`), sliced so that no temporary exceeds about _BATCH_CELLS
    cells.  An order d with no divisor of |G| strictly between d and |G|
    that it divides is skipped: every join from it is G.  Found subgroups
    are kept as packed bitmask bytes and deduplicated by set operations.
    """
    digest = group.digest()
    cached = _NORMAL_CACHE.get(digest)
    if cached is not None:
        return cached

    n = group.order
    table = group.table
    ar = np.arange(n)
    power = _powers(table)
    union = np.zeros((n, n), dtype=bool)
    abelian = group.is_abelian()
    if abelian:
        union[ar, power] = True  # union[x] marks <x>
    else:
        # a class is named by its smallest member; the union of the <y> over
        # the class of x holds z iff the class of z holds a power of x
        inv = np.asarray(group.inverses(), dtype=np.intp)
        klass = table[table, inv[:, None]].min(axis=0)  # over g of g x g^-1
        union[ar, klass[power]] = True
        union = union[:, klass]
    # N*ncl(x) depends on x only through ncl(x): owner[x] is one element with
    # the closure of x, and members[x] lists that closure, padded with the
    # identity; each distinct union is closed once, in place
    owner, closure_of = _distinct(_words(union))
    closures = union[owner]
    if not abelian:
        for row in closures:
            _closure(table, row)
        again, closure_of_union = _distinct(_words(closures))
        owner, closure_of, closures = owner[again], closure_of_union[closure_of], closures[again]
    size = closures.sum(axis=1)
    listed = np.argsort(~closures, axis=1, kind="stable")[:, : size.max()]
    listed[np.arange(listed.shape[1]) >= size[:, None]] = 0
    owner, members = owner[closure_of], listed[closure_of]

    # the joins of {1} are the closures themselves
    seeds = _words(np.vstack([closures, np.ones(n, dtype=bool)]))
    found: set[bytes] = set()
    by_order: dict[int, list[bytes]] = {}
    _register(found, by_order, seeds, np.append(size, n))
    divisors = _order_facts(n)[1]
    for i, d in enumerate(divisors[1:-1], start=1):
        keys = by_order.pop(d, [])
        if all(e % d for e in divisors[i + 1 : -1]):
            continue  # no order between d and n: every join is the whole group
        m = n // d
        step = max(1, _BATCH_CELLS // (n * max(d, m)))
        for start in range(0, len(keys), step):
            subs = _rows(keys[start : start + step], n)
            _register(found, by_order, *_join_batch(table, subs, d, owner, members))

    masks = [int.from_bytes(key, "little") for key in found]
    frozen = tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))
    _NORMAL_CACHE[digest] = frozen
    return frozen


def _join_batch(
    table: np.ndarray, subs: np.ndarray, d: int, owner: np.ndarray, members: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bitmask words and orders of the joins N*ncl(x) for normal N of order d.

    `subs` holds one membership row per N.  Every N has index m = n/d, so the
    cosets are regular arrays: coset[i, y] numbers the coset of N_i holding
    y, in the order of the cosets' smallest elements (0 for N_i itself).  One
    x per coset outside N_i is taken, mapped to owner[x], one fixed element
    with the normal closure of x, and each distinct (N_i, x) gives one join:
    the cosets of N_i that the members of ncl(x), members[x], fall in.  Its
    bitmask is the sum of those cosets' bitmasks, which are disjoint.
    """
    b, n = subs.shape
    m = n // d
    coset, reps = _cosets(table, subs.nonzero()[1].reshape(b, d))
    batch = np.arange(b)[:, None]
    pick = np.zeros((b, n), dtype=bool)
    pick[batch, owner[reps[:, 1:]]] = True
    sub_of, x = pick.nonzero()
    hit = np.zeros((x.size, m), dtype=bool)
    hit[np.arange(x.size)[:, None], coset[sub_of[:, None], members[x]]] = True
    onehot = np.zeros((b * m, n), dtype=bool)
    onehot[batch * m + coset, np.arange(n)] = True
    words = _words(onehot).reshape(b, m, -1)  # the bitmask of each coset
    pair, c = hit.nonzero()  # by pair, each starting with coset 0 (the identity's)
    joins = np.add.reduceat(words[sub_of[pair], c], np.flatnonzero(c == 0))
    return joins, d * hit.sum(axis=1)


def group_divisor_sum(group: FiniteGroup) -> int:
    """Sum of |N| over all normal subgroups N, including the group itself."""
    return sum(mask.bit_count() for mask in _normal_lattice(group))


def normal_quotients(group: FiniteGroup) -> list[FiniteGroup]:
    """G/N for every normal subgroup N, in the order of `_normal_lattice`.

    Cosets are numbered by their smallest element, in increasing order, so
    the identity coset gets index 0; equal tables of one subgroup order are
    one FiniteGroup object.
    """
    return _quotients(group, _normal_lattice(group))


def _quotients(group: FiniteGroup, masks: Sequence[int]) -> list[FiniteGroup]:
    """G/N for the subgroup N with each bitmask, in the order of the masks.

    The masks are taken in runs of one subgroup order d (the masks of
    `_normal_lattice` are sorted by order), in slices that keep every
    temporary under about _BATCH_CELLS cells.  One slice is one batch of
    array operations: each N is checked to hold the identity, to be closed
    and to be normal (conjugation by each generator maps N into N); the
    cosets come from `_cosets`; every quotient table is one gather of the
    coset numbers of the products of coset representatives.  Each distinct
    table of a slice is built as a FiniteGroup once.
    """
    n = group.order
    table = group.table
    if not all(mask & 1 for mask in masks):
        raise ValueError("subgroup must contain the identity")
    gens = np.asarray(group.generators(), dtype=np.intp)
    gen_inv = np.asarray(group.inverses(), dtype=np.intp)[gens]
    width = (n + 7) // 8
    out: list[FiniteGroup] = []
    trivial = None  # G/G, built at most once per call
    for d, run in itertools.groupby(masks, key=int.bit_count):
        run = list(run)
        if d == 1:  # G/{1} is G, table and all
            out.extend([group] * len(run))
            continue
        if d == n:
            trivial = trivial or build_cyclic(1)
            out.extend([trivial] * len(run))
            continue
        step = max(1, _BATCH_CELLS // (n * max(d, n // d)))
        for start in range(0, len(run), step):
            part = run[start : start + step]
            subs = _rows([mask.to_bytes(width, "little") for mask in part], n)
            tables = _quotient_batch(table, subs, d, gens, gen_inv)
            first, which = _distinct(tables.reshape(len(part), -1))
            built = [FiniteGroup(t) for t in tables[first]]
            out.extend(built[k] for k in which.tolist())
    return out


def _quotient_batch(
    table: np.ndarray, subs: np.ndarray, d: int, gens: np.ndarray, gen_inv: np.ndarray
) -> np.ndarray:
    """Quotient tables G/N_i, shape (b, m, m), for the b rows of `subs`.

    Each row of `subs` marks a set N_i of d elements holding the identity;
    raises ValueError unless every N_i is a normal subgroup.
    """
    b, n = subs.shape
    batch = np.arange(b)[:, None, None]
    elems = subs.nonzero()[1].reshape(b, d)
    if not subs[batch, table[elems[:, :, None], elems[:, None, :]]].all():
        raise ValueError("quotient requires a subgroup: set is not closed")
    if n % d != 0:
        raise ValueError("subgroup order does not divide the group order")
    conj = table[table[gens[:, None, None], elems], gen_inv[:, None, None]]  # g x g^-1
    if not subs[batch[:, 0], conj].all():
        raise ValueError("quotient requires a normal subgroup")
    coset, reps = _cosets(table, elems)
    return coset[batch, table[reps[:, :, None], reps[:, None, :]]].astype(_INDEX)


def is_nilpotent(group: FiniteGroup) -> bool:
    """True iff every Sylow subgroup is normal.

    A normal subgroup of order p^e, for p^e exactly dividing |G|, is the
    unique Sylow p-subgroup, so it suffices that one exists for every p.
    """
    orders = {mask.bit_count() for mask in _normal_lattice(group)}
    return all(p**e in orders for p, e in _order_facts(group.order)[0])


# ---------------------------------------------------------------------------
# builders


def build_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n: table[i][j] = (i + j) mod n."""
    _check_cap(n)
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n)


def build_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, indexed lexicographically."""
    _check_cap(g.order * h.order)
    tg = g.table.astype(np.int64)
    th = h.table.astype(np.int64)
    big = tg[:, None, :, None] * h.order + th[None, :, None, :]
    n = g.order * h.order
    return FiniteGroup(big.reshape(n, n))


def build_abelian(factors: list[int] | tuple[int, ...]) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders (empty = trivial)."""
    for f in factors:
        if f < 1:
            raise ValueError(f"cyclic factor orders must be positive, got {f}")
    group = build_cyclic(1)
    for f in factors:
        group = build_direct_product(group, build_cyclic(f))
    return group


def order_two_elements(group: FiniteGroup) -> list[int]:
    """Indices of the elements of order exactly 2 (candidates for dicyclic y)."""
    return [x for x, o in enumerate(group.element_orders()) if o == 2]


def _inverting_extension(a: FiniteGroup, y: int) -> FiniteGroup:
    """Extension of the abelian A by x with x a x^-1 = a^-1 and x**2 = y.

    Elements are (a, eps) with eps in {0, 1} for the cosets A and Ax, indexed
    eps*|A| + a: (a,0)(b,eps) = (a+b, eps), (a,1)(b,0) = (a-b, 1) and
    (a,1)(b,1) = (a-b+y, 0).  y = 0, the identity, gives Dih(A).
    """
    _check_cap(2 * a.order)
    ta = a.table
    minus = ta[:, np.asarray(a.inverses())]  # (a, b) -> a - b
    return FiniteGroup(np.block([[ta, ta + a.order], [minus + a.order, ta[minus, y]]]))


def build_generalized_dihedral(a_factors: list[int] | tuple[int, ...]) -> FiniteGroup:
    """Extension of the abelian group A by an order-2 element inverting it."""
    return _inverting_extension(build_abelian(a_factors), 0)


def build_generalized_dicyclic(
    a_factors: list[int] | tuple[int, ...], y_index: int
) -> FiniteGroup:
    """Extension of an even-order abelian A by x with x**2 = y, x a x^-1 = a^-1.

    A must have order 2n with n > 1 and y must be an element of order 2 in A.
    """
    a = build_abelian(a_factors)
    if a.order % 2 != 0:
        raise ValueError(f"dicyclic base group must have even order, got {a.order}")
    if a.order <= 2:
        raise ValueError(
            f"dicyclic base group must have order 2n with n > 1, got {a.order}"
        )
    if not 0 <= y_index < a.order or a.element_orders()[y_index] != 2:
        raise ValueError(f"y (index {y_index}) must be an element of order 2 in A")
    return _inverting_extension(a, y_index)


def build_zm(m: int, n: int, r: int) -> FiniteGroup:
    """Metacyclic group <a, b | a^m = b^n = 1, b^-1 a b = a^r> of order m*n.

    The parameter triple must satisfy gcd(m, n) = gcd(m, r-1) = 1 and
    r^n = 1 (mod m).  Elements are b^j a^i indexed j*m + i.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got ({m}, {n})")
    r %= m
    if math.gcd(m, n) != 1 or math.gcd(m, r - 1) != 1 or pow(r, n, m) != 1 % m:
        raise ValueError(f"({m}, {n}, {r}) is not a valid metacyclic parameter triple")
    _check_cap(m * n)
    order = m * n
    rp = np.array([pow(r, j, m) for j in range(n)], dtype=np.int64)
    j1, i1 = np.divmod(np.arange(order, dtype=np.int64)[:, None], m)
    j2, i2 = np.divmod(np.arange(order, dtype=np.int64)[None, :], m)
    return FiniteGroup(((j1 + j2) % n) * m + (i1 * rp[j2] + i2) % m)


def build_affine_prime(p: int) -> FiniteGroup:
    """Group of maps x -> a*x + b over the field of prime order p.

    Elements are (a, b) with a in 1..p-1, b in 0..p-1, indexed (a-1)*p + b;
    (a, b)(c, d) = (a*c, a*d + b).  Only prime fields: the oracle does not do
    extension-field arithmetic.
    """
    if not numtheory.is_prime(p):
        raise ValueError(f"affine oracle needs a prime field order, got {p}")
    order = p * (p - 1)
    _check_cap(order)
    idx = np.arange(order, dtype=np.int64)
    a, b = np.divmod(idx[:, None], p)
    c, d = np.divmod(idx[None, :], p)
    a = a + 1
    c = c + 1
    return FiniteGroup((a * c % p - 1) * p + (a * d + b) % p)
