"""Exact arbitrary-precision number theory.

Divisor sums, primality, factoring with an explicit effort cap, Mersenne
machinery with the table of even perfect numbers P_i and whether P_i + 1 is
a prime power (`perfect_plus_one`), and multiplicative orders.  A number n
is perfect, abundant, deficient, almost or quasi perfect as the cyclic group
C_n is Leinster, abundant, deficient, almost- or quasi-Leinster, since
D(C_n) = sigma(n); `families.classify_kind(divisor_sum(n), n)` names it.

Everything is pure-integer and reproducible; when an answer cannot be
computed within the configured effort, an exception is raised rather than
returning a possibly wrong result.

`is_prime` is exact below psi_13 = 3317044064679887385961981 (about
2**81.4), where strong-pseudoprime tests to the first 13 prime bases decide
primality.  From psi_13 up it is a Miller-Rabin probable-prime test whose
extra witnesses are seeded from n, so a verdict is reproducible but not
proved.  `factorize` takes the prime factors up to `_TRIAL_BOUND` (2**12)
by trial division below `_TRIAL_BOUND`**2 and from one gcd with their
product above it, accepts the cofactor when `is_prime` does, and splits a
composite cofactor with Brent's rho under an iteration budget
(`_RHO_BUDGET`, 2,000,000 steps), raising FactorizationError when the budget
runs out.  Its prime factors from psi_13 up are therefore probable primes.

Segmented sieves serve whole ranges without a factorization per integer.
`divisor_sums(lo, hi)` gives sigma of every n in a window, dividing the
primes up to isqrt(hi) out of their multiples a slice at a time, for the
cyclic, dihedral, dicyclic and affine sweeps; `factorizations(lo, hi)` the
factors, for the gen-dihedral sweep.  `prime_powers(limit)` streams the
prime powers up to limit a window at a time, for the affine sweep, and
`primes(limit)` lists the primes up to limit, for the pq sweep.  Every
other function takes one n at a time, by the paths above.

The module imports no numpy: the closed-form commands run on it without
loading the oracle.  So `OrderCapError`, which the oracle raises and the
command line maps to its resource exit code, is defined here beside
FactorizationError.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import compress, islice, repeat

__all__ = [
    "MERSENNE_EXPONENTS",
    "SIEVE_CAP",
    "FactorizationError",
    "OrderCapError",
    "carmichael",
    "divisor_sum",
    "divisor_sums",
    "divisors",
    "divisors_from_factors",
    "factorize",
    "factorizations",
    "is_prime",
    "lucas_lehmer",
    "mult_order",
    "perfect_plus_one",
    "prime_power_decompose",
    "prime_powers",
    "primes",
    "verified_mersenne_exponents",
]


class FactorizationError(Exception):
    """Factoring exceeded its effort cap; raised instead of guessing."""


class OrderCapError(Exception):
    """Requested group order exceeds the configured cap."""


# Deterministic Miller-Rabin: the k-th witness is the k-th prime, paired
# with psi_k, the least odd composite that is a strong pseudoprime to each of
# the first k primes (OEIS A014233; psi_12 and psi_13 from Sorenson and
# Webster, Math. Comp. 86 (2017)).  So an n < psi_k that passes the rounds
# to the first k witnesses is prime.  From psi_13 up the 13 witnesses are
# followed by _RANDOM_ROUNDS pseudo-random ones, seeded from n so that
# results are stable.
_WITNESSES = (
    (2, 2047),
    (3, 1373653),
    (5, 25326001),
    (7, 3215031751),
    (11, 2152302898747),
    (13, 3474749660383),
    (17, 341550071728321),
    (19, 341550071728321),
    (23, 3825123056546413051),
    (29, 3825123056546413051),
    (31, 3825123056546413051),
    (37, 318665857834031151167461),
    (41, 3317044064679887385961981),
)
_RANDOM_ROUNDS = 40

#: First 12 known Mersenne prime exponents.  Not trusted as-is: each is
#: re-proved by lucas_lehmer on first use (see verified_mersenne_exponents).
MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127)


#: `divisor_sums` sieves a window whose hi is below SIEVE_CAP**2 = 2**44 by
#: the primes up to SIEVE_CAP, and takes `divisor_sum` of each n above it.
SIEVE_CAP = 1 << 22


def primes(limit: int) -> list[int]:
    """The primes up to limit, by a sieve of the odd numbers."""
    if limit < 2:
        return []
    odd = bytearray([1]) * ((limit + 1) // 2)  # odd[i] stands for 2i + 1
    odd[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(odd), p)))
    return [2, *compress(range(1, limit + 1, 2), odd)]


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    """One strong-pseudoprime round; True means 'possibly prime'."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: exact below psi_13 (about 2**81.4), a probable-prime test from it up.

    Below psi_k the rounds to the first k prime witnesses decide n, so a
    prime n < psi_13 takes at most 13 rounds.  From psi_13 up,
    _RANDOM_ROUNDS extra pseudo-random witnesses are tried, seeded from n,
    so the verdict is reproducible but not a proof.
    """
    if n < 2:
        return False
    for p, _ in _WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in _WITNESSES:
        if not _miller_rabin_round(n, a, d, s):
            return False
        if n < psi:
            return True
    rng = random.Random(n)
    for _ in range(_RANDOM_ROUNDS):
        a = rng.randrange(2, n - 1)
        if not _miller_rabin_round(n, a, d, s):
            return False
    return True


# `factorize` takes the primes up to _TRIAL_BOUND by trial division or one
# gcd, and gives Brent rho _RHO_BUDGET iterations for all the splits of one
# cofactor.
_TRIAL_BOUND = 1 << 12
_RHO_BUDGET = 2_000_000


@lru_cache(maxsize=4)
def _primorial(bound: int) -> int:
    """Product of the primes up to bound, built on first use and kept per bound.

    A changed `_TRIAL_BOUND` gets its own product.  The primes are multiplied
    pairwise up a balanced tree for the tests that set the bound to 10**6:
    there it takes 0.4 s, against 3.5 s for one `math.prod`.  At the default
    2**12 both take about 0.2 ms (2-core x86 host, Python 3.11).
    """
    factors = primes(bound)
    while len(factors) > 1:
        pairs = map(operator.mul, factors[::2], factors[1::2])
        factors = [*pairs, *factors[len(factors) & ~1 :]]
    return math.prod(factors)


def _small_factors(n: int) -> int:
    """The product of the primes up to `_TRIAL_BOUND` that divide n, by one gcd."""
    return math.gcd(n, _primorial(_TRIAL_BOUND))


def _trial_division(x: int) -> list[tuple[int, int]]:
    """((p1, e1), ...) of x by trial division by 2, 3 and the 6k +- 1 up to `_TRIAL_BOUND`.

    Division stops at the square root of what is left, which is then 1 or a
    prime, so the factorization is complete when x < `_TRIAL_BOUND`**2 or
    when no prime above the bound divides x.
    """
    factors = []
    for p in (2, 3):
        if x % p == 0:
            x //= p
            k = 1
            while x % p == 0:
                x //= p
                k += 1
            factors.append((p, k))
    d = 5
    while d <= _TRIAL_BOUND and d * d <= x:
        for q in (d, d + 2):
            if x % q == 0:
                x //= q
                k = 1
                while x % q == 0:
                    x //= q
                    k += 1
                factors.append((q, k))
        d += 6
    if x > 1:
        factors.append((x, 1))
    return factors


def _brent_rho(n: int, budget: list[int]) -> int:
    """Find a nontrivial factor of composite odd n (Brent's cycle variant).

    `budget` is a single-element mutable iteration allowance shared across
    recursive factoring calls; exhausting it raises FactorizationError.
    """
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= min(m, r - k)
                if budget[0] <= 0:
                    raise FactorizationError(
                        f"factorization gave up: rho budget exhausted on {n}"
                    )
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                budget[0] -= 1
                if budget[0] <= 0:
                    raise FactorizationError(
                        f"factorization gave up: rho budget exhausted on {n}"
                    )
        if g != n:
            return g


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Complete prime factorization of n >= 1 as ((p1, e1), (p2, e2), ...), sorted by prime.

    The primes up to `_TRIAL_BOUND` come out first.  Below
    `_TRIAL_BOUND`**2 they are found by trial division by 2, 3 and the
    6k +- 1, which stops at the square root of the cofactor.  From there on,
    one gcd with the product of those primes gives the product of the ones
    that divide n, and only that gcd is trial-divided.  The group orders
    the oracle factors stay on trial division, which is cheaper there: n <=
    512 takes about 1.3 us by trial division and 4.4 us by the gcd, and the
    gcd also builds the product on first use (the gcd for every n made the
    `gen-dihedral` bench's median operation 90% slower).  The cofactor is
    kept as a prime when `is_prime` says so, and otherwise split by Brent
    rho under `_RHO_BUDGET` iterations shared by every split.  Rho finds a
    factor below 10**6 in about a thousand steps, so a short trial bound is
    cheaper than a long one.  From psi_13 (about 2**81.4) up `is_prime` is a
    seeded probable-prime test, so prime factors that large are probable
    primes.  Exceeding the budget raises FactorizationError; a silently
    incomplete factorization is never returned.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    if n < _TRIAL_BOUND**2:
        return tuple(_trial_division(n))
    counts: dict[int, int] = {}
    m = n
    for p, _ in _trial_division(_small_factors(n)):
        counts[p] = 0
        while m % p == 0:
            counts[p] += 1
            m //= p
    budget = [_RHO_BUDGET]
    stack = [m] if m > 1 else []
    while stack:
        x = stack.pop()
        if is_prime(x):
            counts[x] = counts.get(x, 0) + 1
            continue
        f = _brent_rho(x, budget)
        stack.append(f)
        stack.append(x // f)
    return tuple(sorted(counts.items()))


def divisor_sum(n: int) -> int:
    """Sum of all divisors of n, including n itself.

    The product of 1 + p + ... + p^e over `factorize(n)`.  A run of n, or a
    few n close together, is cheaper as one window of `divisor_sums`.
    """
    if n < 1:
        raise ValueError(f"divisor_sum undefined for {n}: need n >= 1")
    total = 1
    for p, e in factorize(n):
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


@lru_cache(maxsize=1)
def _base_primes(bits: int) -> list[int]:
    """The primes below 2**bits: the sieving primes of every window whose
    isqrt(hi) has `bits` bits.  One list is kept, so a sweep builds each once."""
    return primes((1 << bits) - 1)


def _sieve(lo: int, hi: int, rest: list[int], value) -> Iterator[tuple[int, int, list]]:
    """(i, p, values) for each prime p <= isqrt(hi) with multiples rest[i::p] in the
    window `rest`: values[j] = value(p, k, p^k) for the p^k dividing the j-th exactly,
    which is divided out (Bays and Hudson, BIT 17, 1977), leaving 1 or a prime."""
    root = math.isqrt(max(hi, 0))
    base = _base_primes(root.bit_length())
    for p in islice(base, bisect_right(base, root)):
        i = -lo % p  # the index of lo's first multiple of p
        count = len(range(i, len(rest), p))
        if not count:
            continue
        values, parts = [value(p, 1, p)] * count, [p] * count
        q, k = p * p, 2
        while q <= hi:  # the multiples of q = p^k, k >= 2, among those of p
            j = (-lo % q - i) // p
            if j >= count:
                break
            step = q // p
            values[j::step] = repeat(value(p, k, q), len(range(j, count, step)))
            parts[j::step] = repeat(q, len(range(j, count, step)))
            q, k = q * p, k + 1
        yield i, p, values
        rest[i::p] = map(operator.floordiv, rest[i::p], parts)


def divisor_sums(lo: int, hi: int) -> list[int]:
    """[divisor_sum(lo), ..., divisor_sum(hi)], by one segmented sieve of the window.

    Sigma is multiplied by 1 + p + ... + p^e as `_sieve` divides p^e out,
    and by r + 1 for the prime r left over: a few C-level passes per prime.
    From hi >= SIEVE_CAP**2 on each n takes `divisor_sum`.
    """
    if lo < 1 and lo <= hi:
        raise ValueError(f"divisor_sum undefined for {lo}: need n >= 1")
    if hi >= SIEVE_CAP**2:
        return list(map(divisor_sum, range(lo, hi + 1)))
    rest = list(range(lo, hi + 1))
    sums = [1] * len(rest)
    for i, p, terms in _sieve(lo, hi, rest, lambda p, k, q: (q * p - 1) // (p - 1)):
        sums[i::p] = map(operator.mul, sums[i::p], terms)
    # r + (r > 1): the factor of a prime r left over, and 1 for r = 1
    factors = map(operator.add, rest, map(operator.gt, rest, repeat(1)))
    return list(map(operator.mul, sums, factors))


def factorizations(lo: int, hi: int) -> list[tuple[tuple[int, int], ...]]:
    """[factorize(lo), ..., factorize(hi)], by the segmented sieve `_sieve`, as sigma is:
    (p, e) is appended to each multiple of p in the window as p is divided
    out, and what is left of n, 1 or a prime above isqrt(hi), comes last.
    From hi >= SIEVE_CAP**2 on each n takes `factorize`."""
    if lo < 1 and lo <= hi:
        raise ValueError(f"cannot factor {lo}: need n >= 1")
    if hi >= SIEVE_CAP**2:
        return list(map(factorize, range(lo, hi + 1)))
    rest = list(range(lo, hi + 1))
    found: list[list[tuple[int, int]]] = [[] for _ in rest]
    for i, p, pairs in _sieve(lo, hi, rest, lambda p, k, q: (p, k)):
        deque(map(list.append, found[i::p], pairs), maxlen=0)
    left = list(map(operator.gt, rest, repeat(1)))
    deque(map(list.append, compress(found, left), zip(compress(rest, left), repeat(1))), maxlen=0)
    return list(map(tuple, found))


def divisors(n: int) -> list[int]:
    """All divisors of n in increasing order."""
    return divisors_from_factors(factorize(n))


def divisors_from_factors(factors: Iterable[tuple[int, int]]) -> list[int]:
    """All divisors, in increasing order, of the product of p**e over the
    given (p, e) pairs of distinct primes, as `factorize` returns them."""
    out = [1]
    for p, e in factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_decompose(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k and p prime, k maximal; None otherwise.

    One gcd gives the primes up to `_TRIAL_BOUND` that divide n, and n can
    only be a power of a lone one.  Without them every prime factor exceeds
    the bound, so n = p**k needs `_TRIAL_BOUND`**k < n, and only those k are
    tried, the largest first: the first exact k-th root found is the one
    with k maximal.
    """
    if n < 2:
        raise ValueError(f"prime_power_decompose needs n >= 2, got {n}")
    small = _small_factors(n)
    if small > 1:
        if not is_prime(small):
            return None
        k = 0
        while n % small == 0:
            n //= small
            k += 1
        return (small, k) if n == 1 else None
    top = 1
    while _TRIAL_BOUND ** (top + 1) < n:
        top += 1
    for k in range(top, 0, -1):
        root = _iroot(n, k)
        if root**k == n:
            return (root, k) if is_prime(root) else None
    return None


# integers per window of `prime_powers`' segmented sieve
_WINDOW = 1 << 16


def prime_powers(limit: int) -> Iterator[int]:
    """The prime powers p**k, k >= 1, up to limit, ascending, one window at a time.

    The primes come from a segmented sieve of _WINDOW integers at a time by
    the primes up to isqrt(limit); the p**k with k >= 2, which need p <=
    isqrt(limit), are listed once and merged into their window.  So the
    stream holds one window, not the range.
    """
    base = primes(math.isqrt(max(limit, 0)))
    powers = []
    for p in base:
        q = p * p
        while q <= limit:
            powers.append(q)
            q *= p
    powers.sort()
    for lo in range(2, limit + 1, _WINDOW):
        hi = min(lo + _WINDOW - 1, limit)
        flags = bytearray([1]) * (hi - lo + 1)
        for p in islice(base, bisect_right(base, math.isqrt(hi))):
            start = max(p * p, -(-lo // p) * p) - lo
            flags[start::p] = bytes(len(range(start, len(flags), p)))
        window = [*compress(range(lo, hi + 1), flags)]
        window += powers[bisect_left(powers, lo) : bisect_right(powers, hi)]
        yield from sorted(window)


def lucas_lehmer(r: int) -> bool:
    """Decide whether 2**r - 1 is prime, for r >= 2."""
    if r < 2:
        raise ValueError(f"lucas_lehmer needs r >= 2, got {r}")
    if r == 2:
        return True  # 3; the s-recurrence below needs odd r
    if not is_prime(r):
        return False  # composite r forces 2**a - 1 | 2**r - 1
    m = (1 << r) - 1
    s = 4
    for _ in range(r - 2):
        s = (s * s - 2) % m
    return s == 0


@lru_cache(maxsize=1)
def verified_mersenne_exponents() -> tuple[int, ...]:
    """The configured Mersenne exponent list, each re-proved by lucas_lehmer."""
    for r in MERSENNE_EXPONENTS:
        if not lucas_lehmer(r):
            raise RuntimeError(f"configured Mersenne exponent {r} failed verification")
    return MERSENNE_EXPONENTS


def perfect_plus_one(count: int) -> list[tuple[int, int, int | None]]:
    """One row (i, P_i, p) for each i <= count: P_i + 1 = p when it is a prime power.

    P_i is the i-th even perfect number, 2**(r-1) * (2**r - 1) for the i-th
    verified Mersenne exponent r, and p is None when P_i + 1 is not a prime
    power.  Any prime-power hit must have exponent 1; a violation would mean
    the surrounding arithmetic is broken and raises RuntimeError.
    """
    exponents = verified_mersenne_exponents()
    if not 1 <= count <= len(exponents):
        raise ValueError(
            f"count must be between 1 and {len(exponents)} (configured exponents), got {count}"
        )
    rows = []
    for i, r in enumerate(exponents[:count], start=1):
        p_i = (1 << (r - 1)) * ((1 << r) - 1)
        decomposition = prime_power_decompose(p_i + 1)
        p = None
        if decomposition is not None:
            p, k = decomposition
            if k != 1:
                raise RuntimeError(
                    f"internal invariant violated: perfect+1 = {p}**{k} with k > 1"
                )
        rows.append((i, p_i, p))
    return rows


def carmichael(m: int) -> int:
    """Carmichael function: exponent of the multiplicative group mod m."""
    if m < 1:
        raise ValueError(f"carmichael needs m >= 1, got {m}")
    if m == 1:
        return 1
    out = 1
    for p, e in factorize(m):
        if p == 2:
            lam = 1 if e == 1 else 2 if e == 2 else 1 << (e - 2)
        else:
            lam = p ** (e - 1) * (p - 1)
        out = math.lcm(out, lam)
    return out


@lru_cache(maxsize=64)
def _carmichael_primes(m: int) -> tuple[int, tuple[int, ...]]:
    """(carmichael(m), the primes dividing it), kept for the last 64 m.

    A zm sweep with a fixed r asks `mult_order` of r mod each prime power of
    every m, and the small ones recur from one m to the next, so each is
    factored, and its exponent, about once.
    """
    exponent = carmichael(m)
    return exponent, tuple(p for p, _ in factorize(exponent))


def mult_order(r: int, m: int) -> int:
    """Least d >= 1 with r**d == 1 (mod m); requires gcd(r, m) == 1.

    Computed exactly by starting from the Carmichael exponent (a known
    multiple of the order) and stripping prime factors, never by trial
    powering.
    """
    if m < 1:
        raise ValueError(f"mult_order needs m >= 1, got {m}")
    if m == 1:
        return 1
    r %= m
    if math.gcd(r, m) != 1:
        raise ValueError(f"mult_order needs gcd(r, m) = 1, got gcd = {math.gcd(r, m)}")
    order, primes_of_order = _carmichael_primes(m)
    for p in primes_of_order:
        while order % p == 0 and pow(r, order // p, m) == 1:
            order //= p
    return order
