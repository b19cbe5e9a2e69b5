"""Closed-form normal-subgroup order sums for structured group families.

Covers cyclic/nilpotent groups, the metacyclic ZM(m, n, r) family together
with its lattice-triple machinery, affine groups over finite fields,
dihedral groups and the generalized dihedral groups Dih(A) over any finite
abelian A, dicyclic groups over cyclic A, and nonabelian groups of order p*q.
Everything here is integer arithmetic on the parameters; no group table is
built.  In particular

    D(Dih(A)) = sum_{H <= A} |H| + 2|A| * #{A1 <= A : A^2 <= A1},

with the subgroup sum taken from Birkhoff's count of the subgroups of each
type in an abelian p-group (L. M. Butler, Subgroup Lattices and Symmetric
Functions, Mem. AMS 539, 1994).  Every formula here has a brute-force
counterpart in :mod:`leinster.oracle`; the verification suite holds the two
sides together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import numtheory

__all__ = [
    "GroupClass",
    "GroupKind",
    "LatticeTriple",
    "ZMTriple",
    "affine_classify",
    "affine_divisor_sum",
    "classify_group",
    "dicyclic_divisor_sum",
    "dihedral_divisor_sum",
    "generalized_dihedral_divisor_sum",
    "nilpotent_classify",
    "pq_divisor_sum",
    "zm_canonical",
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


@dataclass(frozen=True)
class GroupClass:
    """Classification of a group from its normal-subgroup order sum D and order."""

    kind: GroupKind
    D: int
    order: int


def classify_group(D: int, order: int) -> GroupClass:
    """Five-way classification of (D, order) by comparing D with 2*order."""
    if D < 1 or order < 1:
        raise ValueError(f"need D >= 1 and order >= 1, got ({D}, {order})")
    if D == 2 * order:
        kind = GroupKind.LEINSTER
    elif D == 2 * order + 1:
        kind = GroupKind.QUASI_LEINSTER
    elif D == 2 * order - 1:
        kind = GroupKind.ALMOST_LEINSTER
    elif D > 2 * order:
        kind = GroupKind.ABUNDANT
    else:
        kind = GroupKind.DEFICIENT
    return GroupClass(kind, D, order)


def nilpotent_classify(n: int, is_cyclic: bool) -> GroupKind:
    """Classification of a nilpotent group of order n known (only) to be cyclic or not.

    A cyclic group classifies exactly as its order does; a non-cyclic
    nilpotent group always lands strictly above 2n + 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not is_cyclic:
        return GroupKind.ABUNDANT
    nc = numtheory.classify_number(n)
    if nc.is_perfect:
        return GroupKind.LEINSTER
    if nc.is_quasi_perfect:
        return GroupKind.QUASI_LEINSTER
    if nc.is_almost_perfect:
        return GroupKind.ALMOST_LEINSTER
    return GroupKind.ABUNDANT if nc.is_abundant else GroupKind.DEFICIENT


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

    Each triple carries its subgroup order m*n / (m1*n1).
    """
    out = []
    for n1 in numtheory.divisors(t.n):
        g = _zm_gcd(t, n1)
        for m1 in numtheory.divisors(g):
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
    out = []
    for n1 in numtheory.divisors(n):
        q = rn // (r**n1 - 1)
        for m1 in numtheory.divisors(m):
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
    in closed form.  The verification suite holds this against the summed
    triple orders and the oracle.
    """
    total = 0
    for n1 in numtheory.divisors(t.n):
        g = _zm_gcd(t, n1)
        total += (t.m // g) * (t.n // n1) * numtheory.divisor_sum(g)
    return total


def zm_canonical(t: ZMTriple) -> ZMTriple:
    """Representative triple with r replaced by min(r^t mod m, gcd(t, n) = 1).

    Replacing the acting generator b by a coprime power b^t turns r into r^t
    and gives an isomorphic group, so this picks one triple per such orbit.
    """
    best = t.r
    for k in range(1, t.n + 1):
        if math.gcd(k, t.n) == 1:
            cand = pow(t.r, k, t.m)
            if cand < best:
                best = cand
    return ZMTriple(t.m, t.n, best)


# ---------------------------------------------------------------------------
# affine groups over F_q


def affine_divisor_sum(q: int) -> int:
    """Normal-subgroup order sum 1 + q * divisor_sum(q - 1) of the affine group of F_q.

    q must be a prime power (the group has order q*(q-1)).
    """
    if q < 2 or numtheory.prime_power_decompose(q) is None:
        raise ValueError(f"affine group needs a prime-power field order, got {q}")
    return 1 + q * numtheory.divisor_sum(q - 1)


def affine_classify(q: int) -> GroupClass:
    """Classification of the affine group over F_q by the standard definitions."""
    return classify_group(affine_divisor_sum(q), q * (q - 1))


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


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n, k]_q: the number of k-dimensional subspaces of an n-dimensional F_q-space."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _p_group_subgroup_order_sum(p: int, exponents: list[int]) -> int:
    """Sum of |H| over the subgroups H of the abelian p-group of type lambda.

    lambda is the partition `exponents`.  By Birkhoff's formula the subgroups
    of type mu number the product over the columns i = 1..lambda_1 of

        p^(mu'_{i+1} (lambda'_i - mu'_i)) [lambda'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p

    where ' is the conjugate partition.  Each factor depends only on two
    adjacent columns of mu', so the sum over mu of p^|mu| times that count
    runs column by column from the last to the first, with one running total
    per value of the current column mu'_i.
    """
    columns = [
        sum(1 for e in exponents if e >= i) for i in range(1, max(exponents) + 1)
    ]
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


def generalized_dihedral_divisor_sum(a_factors: list[int] | tuple[int, ...]) -> int:
    """Normal-subgroup order sum of the generalized dihedral group over A.

    A is the direct product of cyclic groups of the given orders (any positive
    integers, not necessarily an invariant-factor chain).  The normal
    subgroups are the subgroups of A plus, for every subgroup A1 containing
    the squares A^2, the [A:A1] reflection-type subgroups of order 2|A1|
    lying over A1, so

        D(Dih(A)) = sum_{H <= A} |H| + 2|A| * #{A1 <= A : A^2 <= A1}.

    The count is the number of subgroups of A/A^2 = C2^r, r the number of
    even factors: sum_k [r, k]_2.  The first sum is multiplicative over the
    Sylow subgroups of A and is evaluated for each of them from Birkhoff's
    subgroup count (L. M. Butler, Subgroup Lattices and Symmetric Functions,
    Mem. AMS 539, 1994).  No cap applies to |A|; only factoring a huge
    factor can hit numtheory's effort cap.
    """
    exponents: dict[int, list[int]] = {}
    for f in a_factors:
        if f < 1:
            raise ValueError(f"cyclic factor orders must be positive, got {f}")
        for p, e in numtheory.factorize(f):
            exponents.setdefault(p, []).append(e)
    lattice_sum = 1
    for p, exps in exponents.items():
        lattice_sum *= _p_group_subgroup_order_sum(p, exps)
    r = len(exponents.get(2, ()))
    containing = sum(_gaussian_binomial(r, k, 2) for k in range(r + 1))
    return lattice_sum + 2 * math.prod(a_factors) * containing


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
