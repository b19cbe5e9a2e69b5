"""Closed-form normal-subgroup order sums for structured group families.

Covers the metacyclic ZM(m, n, r) family together with its lattice-triple
machinery, affine groups over finite fields,
dihedral groups and the generalized dihedral groups Dih(A) over any finite
abelian A, dicyclic groups over cyclic A, and nonabelian groups of order p*q.
Everything here is integer arithmetic on the parameters; no group table is
built.  In particular

    D(Dih(A)) = sum_{H <= A} |H| + 2|A| * #{A1 <= A : A^2 <= A1},

with the subgroup sum taken from Birkhoff's count of the subgroups of each
type in an abelian p-group (L. M. Butler, Subgroup Lattices and Symmetric
Functions, Mem. AMS 539, 1994).  Every formula here has a brute-force
counterpart in :mod:`leinster.oracle`; the verification suite holds the two
sides together.  The finite abelian groups A are enumerated here too, as
invariant-factor chains (`iter_abelian_types`), for the gen-dihedral sweep
and the verify corpus: one group order n at a time, each chain from one
partition of e for each p^e || n, so their number is known before they are
built.  Birkhoff's sum is kept per Sylow type (p, lambda), so a sweep
computes it once per type.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from operator import add, and_, neg, sub

from . import numtheory

__all__ = [
    "GroupKind",
    "LatticeTriple",
    "ZMTriple",
    "affine_divisor_sum",
    "classify_kind",
    "classify_kinds",
    "dicyclic_divisor_sum",
    "dicyclic_divisor_sums",
    "dihedral_divisor_sum",
    "dihedral_divisor_sums",
    "generalized_dihedral_divisor_sum",
    "generalized_dihedral_divisor_sums",
    "iter_abelian_types",
    "pq_divisor_sum",
    "zm_invalid_reason",
    "zm_divisor_sum",
    "zm_normal_triples",
    "zm_subgroup_triples",
    "zm_validate",
]


class GroupKind(Enum):
    LEINSTER = "leinster"
    QUASI_LEINSTER = "quasi-leinster"
    ALMOST_LEINSTER = "almost-leinster"
    ABUNDANT = "abundant"
    DEFICIENT = "deficient"


# the class of D - 2 * order where it names one, and of the others by sign
_NEAR = {0: GroupKind.LEINSTER, 1: GroupKind.QUASI_LEINSTER, -1: GroupKind.ALMOST_LEINSTER}
_FAR = (GroupKind.DEFICIENT, GroupKind.ABUNDANT)


def classify_kind(D: int, order: int) -> GroupKind:
    """Five-way classification of (D, order): `classify_kinds` of one row."""
    return classify_kinds((D,), (order,))[0]


def classify_kinds(Ds, orders) -> list[GroupKind]:
    """The class of each row of two columns of equal length, by D - 2 * order:
    0 is Leinster, 1 quasi- and -1 almost-Leinster, any other abundant above
    0 and deficient below; a column at a time by `map` and `dict.get` (140 ns
    a row against 225 for comparisons per row).  A D or order below 1 raises
    ValueError naming the first such row."""
    if min(Ds, default=1) < 1 or min(orders, default=1) < 1:
        D, order = next(row for row in zip(Ds, orders) if min(row) < 1)
        raise ValueError(f"need D >= 1 and order >= 1, got ({D}, {order})")
    near = _NEAR.get
    return [near(x) or _FAR[x > 0] for x in map(sub, Ds, map(add, orders, orders))]


# ---------------------------------------------------------------------------
# metacyclic ZM(m, n, r)


@dataclass(frozen=True)
class ZMTriple:
    """Validated parameter triple for <a, b | a^m = b^n = 1, b^-1 a b = a^r>.

    Invariants: gcd(m, n) = gcd(m, r-1) = 1, r^n = 1 (mod m), and r is
    reduced mod m.
    """

    m: int
    n: int
    r: int

    @property
    def order(self) -> int:
        return self.m * self.n


@dataclass(frozen=True)
class LatticeTriple:
    """One subgroup of a ZM group, in (m1, n1, s) coordinates."""

    m1: int
    n1: int
    s: int
    subgroup_order: int


def zm_invalid_reason(m: int, n: int, r: int) -> str | None:
    """The first violated triple condition as text, or None if valid."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got ({m}, {n})")
    r %= m
    if math.gcd(m, n) != 1:
        return f"gcd(m, n) = {math.gcd(m, n)} != 1"
    if math.gcd(m, r - 1) != 1:
        return f"gcd(m, r-1) = {math.gcd(m, r - 1)} != 1"
    if pow(r, n, m) != 1 % m:
        return f"r^n = {pow(r, n, m)} != 1 (mod m)"
    return None


def zm_validate(m: int, n: int, r: int) -> ZMTriple | None:
    """ZMTriple with r reduced mod m when the three conditions hold, else None."""
    if zm_invalid_reason(m, n, r) is not None:
        return None
    return ZMTriple(m, n, r % m)


def _zm_gcd(t: ZMTriple, n1: int) -> int:
    # gcd(m, r^n1 - 1) without forming r^n1: reduce mod m first.
    return math.gcd(t.m, (pow(t.r, n1, t.m) - 1) % t.m)


def zm_normal_triples(t: ZMTriple) -> list[LatticeTriple]:
    """The normal-subgroup triples: (m1, n1, 0) with n1 | n, m1 | gcd(m, r^n1 - 1).

    Each triple carries its subgroup order m*n / (m1*n1).  Every gcd
    divides m, so m is factored once and each gcd's divisors are read from
    that factorization.
    """
    m_factors = numtheory.factorize(t.m)
    out = []
    for n1 in numtheory.divisors(t.n):
        g = _zm_gcd(t, n1)
        for m1 in numtheory.divisors_from_factors(_factors_of_divisor(g, m_factors)):
            out.append(LatticeTriple(m1, n1, 0, t.m * t.n // (m1 * n1)))
    out.sort(key=lambda lt: (lt.n1, lt.m1))
    return out


def zm_subgroup_triples(t: ZMTriple) -> list[LatticeTriple]:
    """All subgroup triples (m1, n1, s): m1 | m, n1 | n, s < m1, m1 | s*(r^n-1)/(r^n1-1).

    The quotient (r^n - 1) / (r^n1 - 1) is formed exactly (it is the integer
    geometric sum 1 + r^n1 + ... + r^(n-n1)), so this is meant for
    oracle-scale triples, not astronomically large ones.
    """
    m, n, r = t.m, t.n, t.r
    rn = r**n - 1
    m_divisors = numtheory.divisors(m)
    out = []
    for n1 in numtheory.divisors(n):
        q = rn // (r**n1 - 1)
        for m1 in m_divisors:
            g = math.gcd(m1, q % m1) if m1 > 1 else 1
            step = m1 // g
            for s in range(0, m1, step):
                out.append(LatticeTriple(m1, n1, s, m * n // (m1 * n1)))
    out.sort(key=lambda lt: (lt.n1, lt.m1, lt.s))
    return out


def zm_divisor_sum(t: ZMTriple) -> int:
    """Normal-subgroup order sum of ZM(m, n, r), in pure integers.

    Evaluates sum over n1 | n of (m/g) * (n/n1) * divisor_sum(g) with
    g = gcd(m, r^n1 - 1): the normal triples (m1, n1, 0) summed over m1 | g
    in closed form.  Every g divides m, so m is factored once and each
    divisor_sum(g) is read from that factorization.  The verification suite
    holds this against the summed triple orders and the oracle.
    """
    m_factors = numtheory.factorize(t.m)
    total = 0
    for n1 in numtheory.divisors(t.n):
        g = _zm_gcd(t, n1)
        total += (t.m // g) * (t.n // n1) * _divisor_sum_of_divisor(g, m_factors)
    return total


def _divisor_sum_of_divisor(g: int, factors: tuple[tuple[int, int], ...]) -> int:
    # divisor_sum(g) for g dividing the number factored as `factors`.
    return math.prod((p ** (k + 1) - 1) // (p - 1) for p, k in _factors_of_divisor(g, factors))


def _factors_of_divisor(g: int, factors: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    # The (p, k) pairs of g dividing the number factored as `factors`, found
    # by dividing out its primes.
    out = []
    for p, _ in factors:
        k = 0
        while g % p == 0:
            g //= p
            k += 1
        if k:
            out.append((p, k))
    return out


# ---------------------------------------------------------------------------
# affine groups over F_q


def affine_divisor_sum(q: int) -> int:
    """Normal-subgroup order sum 1 + q * divisor_sum(q - 1) of the affine group of F_q.

    q must be a prime power (the group has order q*(q-1)).
    """
    if q < 2 or numtheory.prime_power_decompose(q) is None:
        raise ValueError(f"affine group needs a prime-power field order, got {q}")
    return 1 + q * numtheory.divisor_sum(q - 1)


# ---------------------------------------------------------------------------
# dihedral and generalized dihedral


def dihedral_divisor_sum(n: int) -> int:
    """Normal-subgroup order sum of the dihedral group of order 2n.

    divisor_sum(n) + 2n for odd n.  For even n two index-2 subgroups of
    order n join the whole group among the reflection-containing normal
    subgroups, giving divisor_sum(n) + 4n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    extra = 2 * n if n % 2 else 4 * n
    return numtheory.divisor_sum(n) + extra


def dihedral_divisor_sums(lo: int, hi: int) -> list[int]:
    """`dihedral_divisor_sum(n)` for lo <= n <= hi, from one `numtheory.divisor_sums`."""
    sums = numtheory.divisor_sums(lo, hi)
    return [s + (2 * n if n & 1 else 4 * n) for n, s in zip(range(lo, hi + 1), sums)]


# Entries of each cache of generalized_dihedral_divisor_sum.  A sweep to
# max_a = 10^5 meets 10,869 Sylow types, 9,592 of them C_p for a prime p,
# which are cheap to compute again; the 1,277 others and the few r fit.
_SUM_CACHE_SIZE = 1 << 12


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n, k]_q: the number of k-dimensional subspaces of an n-dimensional F_q-space."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@functools.lru_cache(maxsize=_SUM_CACHE_SIZE)
def _p_group_subgroup_order_sum(p: int, partition: tuple[int, ...]) -> int:
    """Sum of |H| over the subgroups H of the abelian p-group of type lambda.

    lambda is `partition`, its parts in non-increasing order: callers sort
    them, so each type is one cache entry.  By Birkhoff's formula the
    subgroups of type mu number the product over the columns i = 1..lambda_1
    of

        p^(mu'_{i+1} (lambda'_i - mu'_i)) [lambda'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p

    where ' is the conjugate partition.  Each factor depends only on two
    adjacent columns of mu', so the sum over mu of p^|mu| times that count
    runs column by column from the last to the first, with one running total
    per value of the current column mu'_i.
    """
    columns = [sum(1 for e in partition if e >= i) for i in range(1, partition[0] + 1)]
    totals = [1]  # indexed by mu'_{i+1}; past the last column mu' is 0
    for lam in reversed(columns):
        totals = [
            p**a
            * sum(
                w * p ** (b * (lam - a)) * _gaussian_binomial(lam - b, a - b, p)
                for b, w in enumerate(totals[: a + 1])
            )
            for a in range(lam + 1)
        ]
    return sum(totals)


@functools.lru_cache(maxsize=_SUM_CACHE_SIZE)
def _subgroup_count_2(r: int) -> int:
    """The number of subgroups of C2^r, the Galois number sum_k [r, k]_2."""
    return sum(_gaussian_binomial(r, k, 2) for k in range(r + 1))


def generalized_dihedral_divisor_sum(a_factors: list[int] | tuple[int, ...]) -> int:
    """Normal-subgroup order sum of the generalized dihedral group over A.

    A is the direct product of cyclic groups of the given orders (any positive
    integers, not necessarily an invariant-factor chain).  The normal
    subgroups are the subgroups of A plus, for every subgroup A1 containing
    the squares A^2, the [A:A1] reflection-type subgroups of order 2|A1|
    lying over A1, so

        D(Dih(A)) = sum_{H <= A} |H| + 2|A| * #{A1 <= A : A^2 <= A1},

    by `_dihedral_sum`.  When the largest factor is a multiple of the others,
    as in a chain, their exponents are read off its one factorization; other
    factors are factored one by one, never multiplied into one harder number.
    No cap applies to |A|; only factoring a huge factor can hit the effort cap.
    """
    for f in a_factors:
        if f < 1:
            raise ValueError(f"cyclic factor orders must be positive, got {f}")
    exponents: dict[int, list[int]] = {}
    top = max(a_factors, default=1)
    if all(top % f == 0 for f in a_factors):
        for p, _ in numtheory.factorize(top):
            exps = exponents[p] = []
            for f in a_factors:
                e = 0
                while f % p == 0:
                    f, e = f // p, e + 1
                if e:
                    exps.append(e)
    else:
        for f in a_factors:
            for p, e in numtheory.factorize(f):
                exponents.setdefault(p, []).append(e)
    types = [(p, tuple(sorted(exps, reverse=True))) for p, exps in exponents.items()]
    return _dihedral_sum(math.prod(a_factors), types)


def generalized_dihedral_divisor_sums(chains: list[tuple[int, ...]]) -> list[int]:
    """`generalized_dihedral_divisor_sum` of each invariant-factor chain, its order
    factored in one `numtheory.factorizations` window over the chains' orders.
    A chain's factors divide one another, so a prime's exponents in them, the
    largest first up to the first it does not divide, are lambda's parts."""
    orders = list(map(math.prod, chains))
    lo = min(orders, default=1)
    window = numtheory.factorizations(lo, max(orders, default=0))
    Ds = []
    for chain, n in zip(chains, orders):
        if len(chain) == 1:
            Ds.append(_dihedral_sum(n, [(p, (e,)) for p, e in window[n - lo]]))
            continue
        types = []
        for p, e in window[n - lo]:
            parts = []
            for f in reversed(chain):
                k = 0
                while f % p == 0:
                    f, k = f // p, k + 1
                if not k:
                    break
                parts.append(k)
            types.append((p, tuple(parts)))
        Ds.append(_dihedral_sum(n, types))
    return Ds


def _dihedral_sum(order: int, types) -> int:
    """D(Dih(A)) for |A| = order and its Sylow types (p, lambda): the product of
    Birkhoff's sums, plus 2|A| times the subgroups of A/A^2 = C2^r, r the parts
    of the 2-type (L. M. Butler, Subgroup Lattices and Symmetric Functions, Mem.
    AMS 539, 1994).  Both are kept per type and per r (`_SUM_CACHE_SIZE` each)."""
    lattice_sum, r = 1, 0
    for p, partition in types:
        lattice_sum *= _p_group_subgroup_order_sum(p, partition)
        if p == 2:
            r = len(partition)
    return lattice_sum + 2 * order * _subgroup_count_2(r)


# orders per factorization window of `iter_abelian_types`; search's chunk
_CHUNK = 4096


@functools.lru_cache(maxsize=None)
def _partitions(e: int) -> tuple[tuple[int, ...], ...]:
    """The partitions of e >= 1, each as its parts in non-increasing order.

    An exponent e of a prime power dividing an order is at most log2 of it,
    so the cache holds a few dozen entries.
    """
    out = []
    stack = [((), e, e)]  # (parts so far, rest to split, largest part allowed)
    while stack:
        parts, rest, largest = stack.pop()
        if not rest:
            out.append(parts)
            continue
        for part in range(1, min(rest, largest) + 1):
            stack.append((parts + (part,), rest - part, part))
    return tuple(out)


def iter_abelian_types(max_order: int) -> Iterator[tuple[int, ...]]:
    """Invariant-factor chains d1 | d2 | ... | dk (d1 >= 2) with product <= max_order.

    One chain per isomorphism type of finite abelian group, the empty chain
    standing for the trivial group, in (order, chain) order: one order n at
    a time, factored in windows of _CHUNK orders (`numtheory.factorizations`),
    so a caller can stop early and one window is held.  A chain of order n
    takes one partition lambda_p of e for each p^e || n, and its i-th largest
    invariant factor is the product over p of p^(lambda_p[i]) (a missing
    part counting as 0).
    """
    yield ()
    for lo in range(2, max_order + 1, _CHUNK):
        for sylow in numtheory.factorizations(lo, min(lo + _CHUNK - 1, max_order)):
            chains = []
            for choice in itertools.product(*(_partitions(e) for _, e in sylow)):
                factors = [1] * max(map(len, choice))
                for (p, _), parts in zip(sylow, choice):
                    for i, part in enumerate(parts):
                        factors[i] *= p**part
                chains.append(tuple(reversed(factors)))
            chains.sort()
            yield from chains


# ---------------------------------------------------------------------------
# generalized dicyclic


def dicyclic_divisor_sum(n: int) -> int:
    """Normal-subgroup order sum of the dicyclic group of order 4n (n >= 2).

    divisor_sum(2n) + 4n for odd n; divisor_sum(2n) + 8n for even n.
    """
    if n < 2:
        raise ValueError(f"dicyclic groups need n >= 2, got {n}")
    extra = 4 * n if n % 2 else 8 * n
    return numtheory.divisor_sum(2 * n) + extra


def dicyclic_divisor_sums(lo: int, hi: int) -> list[int]:
    """`dicyclic_divisor_sum(n)` for lo <= n <= hi, from one `numtheory.divisor_sums`.

    The window is sieved once, for sigma(n); sigma(2n) is then
    sigma(n) * (2^(v+2) - 1) / (2^(v+1) - 1) with 2^v = n & -n the power
    of 2 dividing n exactly.
    """
    if lo < 2 and lo <= hi:
        raise ValueError(f"dicyclic groups need n >= 2, got {lo}")
    ns = range(lo, hi + 1)
    sums = numtheory.divisor_sums(lo, hi)
    return [
        s * (4 * b - 1) // (2 * b - 1) + (4 * n if b == 1 else 8 * n)
        for n, s, b in zip(ns, sums, map(and_, ns, map(neg, ns)))
    ]


# ---------------------------------------------------------------------------
# nonabelian order p*q


def pq_divisor_sum(p: int, q: int) -> int:
    """Normal-subgroup order sum 1 + q + p*q of the nonabelian group of order p*q.

    Requires p < q prime with p | q - 1 (the condition for such a group to
    exist); its proper normal subgroups are the trivial one and the unique
    subgroup of order q.
    """
    if not (numtheory.is_prime(p) and numtheory.is_prime(q)):
        raise ValueError(f"need p and q prime, got ({p}, {q})")
    if p >= q:
        raise ValueError(f"need p < q, got ({p}, {q})")
    if (q - 1) % p != 0:
        raise ValueError(
            f"no nonabelian group of order {p}*{q}: p must divide q - 1"
        )
    return 1 + q + p * q
