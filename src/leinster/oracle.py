"""Brute-force finite-group engine.

Groups are dense Cayley tables over elements 0..order-1 with the identity at
index 0.  The module provides builders for the group families treated
elsewhere in the package, full subgroup and normal-subgroup enumeration by
closure fixpoint, quotients, and the normal-subgroup order sum that the
closed-form family code is checked against.  Each distinct table is
validated once per process, keyed by the same blake2b digest that keys the
subgroup-lattice cache.

Orders above a configurable cap (default 512, override with the
LEINSTER_ORACLE_CAP environment variable) are refused outright; the oracle
never degrades to sampling or partial answers.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import numtheory

__all__ = [
    "DEFAULT_ORDER_CAP",
    "ORDER_CAP_ENV",
    "FiniteGroup",
    "OrderCapError",
    "Subgroup",
    "abelian_types",
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
    "iter_abelian_types",
    "normal_subgroups",
    "order_cap",
    "order_two_elements",
    "quotient",
]

DEFAULT_ORDER_CAP = 512
ORDER_CAP_ENV = "LEINSTER_ORACLE_CAP"

# Enumeration results keyed by table digest; identical tables recur heavily in
# the verification corpus (quotients, direct products), so this is load-bearing.
_LATTICE_CACHE: dict[bytes, tuple[tuple[int, bool], ...]] = {}

# Generating sets of the tables that passed validation, under the same digest:
# verify rebuilds the same quotient and product tables thousands of times, and
# each distinct table is validated only the first time it is built.
_VALIDATED: dict[bytes, tuple[int, ...]] = {}


class OrderCapError(Exception):
    """Requested group order exceeds the configured cap."""


def order_cap() -> int:
    raw = os.environ.get(ORDER_CAP_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP
    cap = int(raw)
    if cap < 1:
        raise ValueError(f"{ORDER_CAP_ENV} must be positive, got {cap}")
    return cap


def _check_cap(order: int) -> None:
    if order < 1:
        raise ValueError(f"group order must be positive, got {order}")
    cap = order_cap()
    if order > cap:
        raise OrderCapError(f"group order {order} exceeds the oracle cap {cap}")


def _find_generators(arr: np.ndarray) -> list[int]:
    """Greedy generating set under the table's operation (no associativity assumed)."""
    n = arr.shape[0]
    member = np.zeros(n, dtype=bool)
    member[0] = True
    count = 1
    gens: list[int] = []
    for x in range(1, n):
        if member[x]:
            continue
        gens.append(x)
        member[x] = True
        count += 1
        while True:
            idx = np.flatnonzero(member)
            member[arr[np.ix_(idx, idx)].reshape(-1)] = True
            new_count = int(member.sum())
            if new_count == count:
                break
            count = new_count
        if count == n:
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

    table[i][j] is the index of the product of elements i and j; index 0 is
    the identity.  Construction validates the Latin-square property and
    associativity, so downstream code can trust the table blindly.  Each
    distinct table is validated once per process: the generating set found
    then is kept under the table's digest (the key of the lattice cache), and
    a later build of an equal table reuses it.  A table that fails validation
    is not kept and raises every time it is built.
    """

    __slots__ = (
        "order",
        "table",
        "_gens",
        "_rows",
        "_inv",
        "_orders",
        "_digest",
    )

    def __init__(self, table):
        arr = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"multiplication table must be square, got {arr.shape}")
        n = int(arr.shape[0])
        _check_cap(n)
        h = hashlib.blake2b(digest_size=16)
        h.update(n.to_bytes(4, "little"))
        h.update(arr.tobytes())
        digest = h.digest()
        gens = _VALIDATED.get(digest)
        if gens is None:
            if arr.min(initial=0) < 0 or arr.max(initial=0) >= n:
                raise ValueError("table entries must be element indices in [0, order)")
            idx = np.arange(n, dtype=np.int32)
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
        self._rows = None
        self._inv = None
        self._orders = None
        self._digest = digest

    @property
    def rows(self) -> list[list[int]]:
        """Table as nested Python lists (fast scalar lookups in hot loops)."""
        if self._rows is None:
            self._rows = self.table.tolist()
        return self._rows

    def inverses(self) -> list[int]:
        if self._inv is None:
            self._inv = np.argmax(self.table == 0, axis=1).tolist()
        return self._inv

    def element_orders(self) -> list[int]:
        if self._orders is None:
            rows = self.rows
            out = [1] * self.order
            for x in range(1, self.order):
                k, y = 1, x
                while y != 0:
                    y = rows[y][x]
                    k += 1
                out[x] = k
            self._orders = out
        return self._orders

    def element_order(self, a: int) -> int:
        return self.element_orders()[a]

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


def _close(rows: list[list[int]], mask: int, elems: list[int], start: int, n: int) -> int:
    """Close `elems` under multiplication, mutating it; returns the bitmask.

    Elements before `start` are assumed to already form a closed set, so only
    products involving at least one new element are computed.
    """
    k = start
    while k < len(elems):
        u = elems[k]
        ru = rows[u]
        j = 0
        while j < len(elems):
            v = elems[j]
            w = ru[v]
            if not mask >> w & 1:
                mask |= 1 << w
                elems.append(w)
            w = rows[v][u]
            if not mask >> w & 1:
                mask |= 1 << w
                elems.append(w)
            j += 1
        if len(elems) == n:
            return (1 << n) - 1
        k += 1
    return mask


def _bits(mask: int) -> list[int]:
    out = []
    x = mask
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _close_np(table: np.ndarray, seed: list[int]) -> int:
    """Vectorized closure, tuned for joins that tend to be large.

    Grows a membership array by pairwise-product rounds; the identity in the
    seed keeps old members marked.  Once every element is reached the whole
    group is returned without a confirming round.
    """
    n = table.shape[0]
    member = np.zeros(n, dtype=bool)
    member[seed] = True
    count = int(member.sum())
    while True:
        idx = np.flatnonzero(member)
        member[table[np.ix_(idx, idx)].reshape(-1)] = True
        new_count = int(member.sum())
        if new_count == n:
            return (1 << n) - 1
        if new_count == count:
            break
        count = new_count
    mask = 0
    for e in np.flatnonzero(member).tolist():
        mask |= 1 << e
    return mask


def _enumerate_lattice(group: FiniteGroup) -> tuple[tuple[int, bool], ...]:
    """All subgroups as (bitmask, is_normal), by closure fixpoint.

    Seeds with every cyclic subgroup, then repeatedly joins each found
    subgroup H with each outside element x until no new subgroup appears.
    Correctness-preserving prunings keep this tractable:

    * <H, x> = <H, h*x> for h in H, so only one x per coset Hx is tried;
    * joins are deduplicated on (H, <x>), since <H, x> only depends on the
      cyclic subgroup generated by x;
    * the join K = <H, x> satisfies three exact constraints: |K| divides
      |G|; |K| is a multiple of lcm(|H|, orders of the products h*x); and
      |K| >= |H| * |<h*x>| / |H meet <h*x>| because K contains each product
      set H<h*x>.  When the smallest size meeting the constraints is |G|,
      or is realized by an already-found subgroup containing H and x, the
      join is identified without running a closure.
    """
    digest = group.digest()
    cached = _LATTICE_CACHE.get(digest)
    if cached is not None:
        return cached

    n = group.order
    rows = group.rows
    table = group.table
    orders = group.element_orders()
    divisors_n = numtheory.divisors(n)
    full = (1 << n) - 1

    cyclic_masks = [0] * n
    for x in range(n):
        mask, y = 1, x
        while y != 0:
            mask |= 1 << y
            y = rows[y][x]
        cyclic_masks[x] = mask

    found = {1}
    # masks indexed by (size, member element) so join-certificate scans only
    # ever look at candidates already containing the extension element
    by_size_elem: dict[tuple[int, int], list[int]] = {}
    worklist = [1]

    def register(mask: int) -> None:
        if mask not in found:
            found.add(mask)
            size = mask.bit_count()
            for e in _bits(mask):
                by_size_elem.setdefault((size, e), []).append(mask)
            worklist.append(mask)

    for mask in cyclic_masks:
        register(mask)
    register(full)

    def feasible(lo: int, mult: int) -> int:
        # smallest divisor of n that is >= lo and a multiple of mult
        for d in divisors_n:
            if d >= lo and d % mult == 0:
                return d
        return n

    def known(size_wanted: int, where: int, sub: int) -> bool:
        # a found subgroup of the minimal feasible size containing H and the
        # extension element must equal the join
        for k in by_size_elem.get((size_wanted, where), ()):
            if k & sub == sub:
                return True
        return False

    resolved: set[int] = set()  # seed-union masks whose join is already settled
    i = 0
    while i < len(worklist):
        sub = worklist[i]
        i += 1
        if sub == full or sub == 1:
            continue  # no proper joins / joins with the trivial group are the seeds
        elems = _bits(sub)
        size = len(elems)
        # canonical representative of the coset Hx, for every x at once
        reps = table[elems].min(axis=0).tolist()
        seen: set[int] = set()
        for x in range(1, n):
            if sub >> x & 1:
                continue
            rep = reps[x]
            if rep in seen:
                continue
            seen.add(rep)
            key = sub | cyclic_masks[x]
            if key in resolved:
                continue
            resolved.add(key)
            multiple = size
            least = 2 * size
            products = []
            for a in elems:
                w = rows[a][x]
                products.append(w)
                multiple = math.lcm(multiple, orders[w])
                if multiple == n:
                    break
                spanned = size * orders[w] // (sub & cyclic_masks[w]).bit_count()
                if spanned > least:
                    least = spanned
            if multiple == n:
                continue  # join is the whole group, already registered
            target = feasible(least, multiple)
            if target == n or known(target, x, sub):
                continue
            if size <= 20:
                # second-level products often expose a large cyclic part of
                # the join that no first-level product h*x shows
                probe = products + [x]
                for p in probe:
                    rp = rows[p]
                    for q in probe:
                        w = rp[q]
                        multiple = math.lcm(multiple, orders[w])
                        if multiple == n:
                            break
                        spanned = (
                            size * orders[w] // (sub & cyclic_masks[w]).bit_count()
                        )
                        if spanned > least:
                            least = spanned
                    if multiple == n:
                        break
                if multiple == n:
                    continue
                refined = feasible(least, multiple)
                if refined != target and (refined == n or known(refined, x, sub)):
                    continue
            if n > 48:
                register(_close_np(table, elems + _bits(cyclic_masks[x]) + products))
            else:
                join_elems = elems + _bits(cyclic_masks[x] & ~sub)
                register(_close(rows, sub | cyclic_masks[x], join_elems, size, n))

    gens = group.generators()
    inv = group.inverses()
    result = []
    for mask in sorted(found, key=lambda m: (m.bit_count(), m)):
        elems = _bits(mask)
        normal = True
        for g in gens:
            rg = rows[g]
            ig = inv[g]
            for a in elems:
                if not mask >> rows[rg[a]][ig] & 1:
                    normal = False
                    break
            if not normal:
                break
        result.append((mask, normal))
    frozen = tuple(result)
    _LATTICE_CACHE[digest] = frozen
    return frozen


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of some parent group, as sorted element indices."""

    elements: tuple[int, ...]
    is_normal: bool

    @property
    def order(self) -> int:
        return len(self.elements)


def all_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """Every subgroup exactly once, sorted by (order, elements)."""
    return [
        Subgroup(tuple(_bits(mask)), normal)
        for mask, normal in _enumerate_lattice(group)
    ]


def normal_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """all_subgroups filtered by conjugation-invariance."""
    return [s for s in all_subgroups(group) if s.is_normal]


def group_divisor_sum(group: FiniteGroup) -> int:
    """Sum of |N| over all normal subgroups N, including the group itself."""
    return sum(mask.bit_count() for mask, normal in _enumerate_lattice(group) if normal)


def quotient(group: FiniteGroup, sub: Subgroup) -> FiniteGroup:
    """Quotient by a normal subgroup; the identity coset gets index 0.

    Cosets are numbered by their smallest element, in increasing order.
    """
    n = group.order
    table = group.table
    for e in sub.elements:
        if not 0 <= e < n:
            raise ValueError(f"subgroup element {e} outside the parent group")
    idx = np.asarray(sub.elements, dtype=np.intp)
    member = np.zeros(n, dtype=bool)
    member[idx] = True
    if not member[0]:
        raise ValueError("subgroup must contain the identity")
    if not member[table[idx[:, None], idx]].all():
        raise ValueError("quotient requires a subgroup: set is not closed")
    if n % idx.size != 0:
        raise ValueError("subgroup order does not divide the group order")
    gens = np.asarray(group.generators(), dtype=np.intp)
    inv = np.asarray(group.inverses(), dtype=np.intp)
    if not member[table[table[gens[:, None], idx], inv[gens][:, None]]].all():
        raise ValueError("quotient requires a normal subgroup")

    # the coset Nx is the column x of the rows of N; its smallest element is
    # its representative
    rep_of = table[idx].min(axis=0)
    reps = np.flatnonzero(rep_of == np.arange(n))
    index = np.zeros(n, dtype=np.intp)
    index[reps] = np.arange(reps.size)
    return FiniteGroup(index[rep_of[table[reps[:, None], reps]]])


def is_nilpotent(group: FiniteGroup) -> bool:
    """True iff every Sylow subgroup is normal."""
    n = group.order
    if n == 1:
        return True
    subs = all_subgroups(group)
    for p, e in numtheory.factorize(n):
        target = p**e
        sylows = [s for s in subs if s.order == target]
        if not sylows:
            raise RuntimeError(f"no Sylow subgroup of order {target} found (bug)")
        if not all(s.is_normal for s in sylows):
            return False
    return True


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


def build_generalized_dihedral(a_factors: list[int] | tuple[int, ...]) -> FiniteGroup:
    """Extension of the abelian group A by an order-2 element inverting it.

    Elements are (a, eps) with eps in {0, 1}, indexed eps*|A| + a, and
    (a,0)(b,eps) = (a+b, eps), (a,1)(b,eps) = (a-b, 1-eps).
    """
    a = build_abelian(a_factors)
    _check_cap(2 * a.order)
    ta = a.table
    neg = np.asarray(a.inverses())
    minus = ta[:, neg]
    return FiniteGroup(np.block([[ta, ta + a.order], [minus + a.order, minus]]))


def build_generalized_dicyclic(
    a_factors: list[int] | tuple[int, ...], y_index: int
) -> FiniteGroup:
    """Extension of an even-order abelian A by x with x**2 = y, x a x^-1 = a^-1.

    A must have order 2n with n > 1 and y must be an element of order 2 in A.
    Elements are (a, eps) with eps in {0, 1} for the cosets A and Ax.
    """
    a = build_abelian(a_factors)
    if a.order % 2 != 0:
        raise ValueError(f"dicyclic base group must have even order, got {a.order}")
    if a.order <= 2:
        raise ValueError(
            f"dicyclic base group must have order 2n with n > 1, got {a.order}"
        )
    if not 0 <= y_index < a.order or a.element_order(y_index) != 2:
        raise ValueError(f"y (index {y_index}) must be an element of order 2 in A")
    _check_cap(2 * a.order)
    ta = a.table
    neg = np.asarray(a.inverses())
    minus = ta[:, neg]  # (a, b) -> a - b
    return FiniteGroup(
        np.block([[ta, ta + a.order], [minus + a.order, ta[minus, y_index]]])
    )


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


def iter_abelian_types(max_order: int) -> Iterator[tuple[int, ...]]:
    """Invariant-factor chains d1 | d2 | ... | dk (d1 >= 2) with product <= max_order.

    One chain per isomorphism type of finite abelian group, the empty chain
    standing for the trivial group.  The empty chain comes first and the rest
    in depth-first order, one at a time, so a caller can stop early.
    """

    def extend(chain: tuple[int, ...], prod: int) -> Iterator[tuple[int, ...]]:
        yield chain
        last = chain[-1]
        d = last
        while prod * d <= max_order:
            yield from extend(chain + (d,), prod * d)
            d += last

    yield ()
    for d in range(2, max_order + 1):
        yield from extend((d,), d)


def abelian_types(max_order: int) -> list[tuple[int, ...]]:
    """The chains of iter_abelian_types, sorted by (order, chain)."""
    return sorted(iter_abelian_types(max_order), key=lambda c: (math.prod(c), c))
