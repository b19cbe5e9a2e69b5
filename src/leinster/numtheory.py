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

`is_prime` is exact below 2**64.  Above it, it is a Miller-Rabin
probable-prime test whose extra witnesses are seeded from n, so a verdict is
reproducible but not proved.  `factorize` divides out the primes below
`_TRIAL_BOUND` (2**12), accepts the cofactor when `is_prime` does, and
splits a composite cofactor with Brent's rho under an iteration budget
(`_RHO_BUDGET`, 2,000,000 steps), raising FactorizationError when the budget
runs out.  Its prime factors above 2**64 are therefore probable primes.

Inside `with sieve(limit):` a smallest-prime-factor table up to
min(limit, SIEVE_CAP) is built once, and `factorize`, `divisor_sum`,
`is_prime` and `prime_power_decompose` read their answers for any n inside
it from the table (same results, a few lookups per call).  Larger n take the
paths above.  The table is a 2-byte-per-entry `array('H')`, filled by slice
assignment in pure Python, and lives only as long as the block.

The module imports no numpy: the closed-form commands run on it without
loading the oracle.  So `OrderCapError`, which the oracle raises and the
command line maps to its resource exit code, is defined here beside
FactorizationError.
"""

from __future__ import annotations

import math
import random
from array import array
from contextlib import contextmanager
from functools import lru_cache

__all__ = [
    "MERSENNE_EXPONENTS",
    "SIEVE_CAP",
    "FactorizationError",
    "OrderCapError",
    "carmichael",
    "divisor_sum",
    "divisors",
    "factorize",
    "is_prime",
    "lucas_lehmer",
    "mult_order",
    "perfect_plus_one",
    "prime_power_decompose",
    "sieve",
    "verified_mersenne_exponents",
]


class FactorizationError(Exception):
    """Factoring exceeded its effort cap; raised instead of guessing."""


class OrderCapError(Exception):
    """Requested group order exceeds the configured cap."""


# Deterministic Miller-Rabin witness set: exact for all n < 3.3e24, which
# covers the whole 64-bit range.  Above the limit the same witnesses are used
# plus _RANDOM_ROUNDS pseudo-random ones (seeded from n, so results are stable).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_WITNESS_LIMIT = 1 << 64
_RANDOM_ROUNDS = 40

#: First 12 known Mersenne prime exponents.  Not trusted as-is: each is
#: re-proved by lucas_lehmer on first use (see verified_mersenne_exponents).
MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127)


#: Largest n a smallest-prime-factor table covers: 2**22 entries, 8 MB.
SIEVE_CAP = 1 << 22

# The largest table of the open `sieve` blocks (None outside them), and the
# tables of every open block.  Entry n is the smallest prime factor of a
# composite n and 0 for a prime (and for 0 and 1), so every entry is at most
# isqrt(SIEVE_CAP) and fits two bytes.
_SPF: array | None = None
_OPEN_TABLES: list[array] = []


def _spf_table(limit: int) -> array:
    """Smallest-prime-factor table of 0..limit, in the encoding of `_SPF`.

    Every prime p <= isqrt(limit) writes p over its multiples from p*p on,
    the largest prime first, so the smallest prime dividing n writes last.
    """
    root = math.isqrt(limit)
    composite = bytearray(root + 1)
    primes = []
    for p in range(2, root + 1):
        if not composite[p]:
            primes.append(p)
            composite[p * p :: p] = b"\x01" * len(range(p * p, root + 1, p))
    table = array("H", bytes(2 * (limit + 1)))
    for p in reversed(primes):
        table[p * p :: p] = array("H", [p]) * len(range(p * p, limit + 1, p))
    return table


@contextmanager
def sieve(limit: int):
    """Answer small-n queries from a smallest-prime-factor table within the block.

    The table covers 0..min(limit, SIEVE_CAP) and is dropped when the block
    exits; blocks may nest or interleave, and the largest open table serves.
    """
    global _SPF
    table = _spf_table(max(1, min(limit, SIEVE_CAP)))
    _OPEN_TABLES.append(table)
    _SPF = max(_OPEN_TABLES, key=len)
    try:
        yield
    finally:
        del _OPEN_TABLES[next(i for i, t in enumerate(_OPEN_TABLES) if t is table)]
        _SPF = max(_OPEN_TABLES, key=len, default=None)


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
    """Primality test: exact below 2**64, a probable-prime test above.

    Above the exact range, _RANDOM_ROUNDS extra pseudo-random witnesses are
    tried, seeded from n, so the verdict is reproducible but not a proof.
    """
    spf = _SPF
    if spf is not None and n < len(spf):
        return n >= 2 and not spf[n]
    if n < 2:
        return False
    for p in _WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        if not _miller_rabin_round(n, a, d, s):
            return False
    if n < _WITNESS_LIMIT:
        return True
    rng = random.Random(n)
    for _ in range(_RANDOM_ROUNDS):
        a = rng.randrange(2, n - 1)
        if not _miller_rabin_round(n, a, d, s):
            return False
    return True


# `factorize` trial-divides to _TRIAL_BOUND and gives Brent rho _RHO_BUDGET
# iterations for all the splits of one cofactor.
_TRIAL_BOUND = 1 << 12
_RHO_BUDGET = 2_000_000


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

    Trial division by 2, 3 and the 6k +- 1 up to `_TRIAL_BOUND`; the
    cofactor is kept as a prime when `is_prime` says so, and otherwise split
    by Brent rho under `_RHO_BUDGET` iterations shared by every split.  Rho finds a factor
    below 10**6 in about a thousand steps, so a short trial division is
    cheaper than a long one.  Above 2**64 `is_prime` is a seeded
    probable-prime test, so prime factors that large are probable primes.
    Exceeding the budget raises FactorizationError; a silently incomplete
    factorization is never returned.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    spf = _SPF
    if spf is not None and n < len(spf):
        factors = []
        while n > 1:
            p = spf[n] or n
            n //= p
            k = 1
            while n % p == 0:
                n //= p
                k += 1
            factors.append((p, k))
        return tuple(factors)
    counts: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    d = 5
    while d <= _TRIAL_BOUND and d * d <= m:
        for q in (d, d + 2):
            while m % q == 0:
                counts[q] = counts.get(q, 0) + 1
                m //= q
        d += 6
    if m > 1:
        if d * d > m or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            budget = [_RHO_BUDGET]
            stack = [m]
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

    Inside a `sieve` block, sigma(n) is multiplied up during the walk of the
    smallest-prime-factor table, one 1 + p + ... + p^e per prime, with no
    factor tuple built; above the table it comes from `factorize`.
    """
    if n < 1:
        raise ValueError(f"divisor_sum undefined for {n}: need n >= 1")
    spf = _SPF
    if spf is not None and n < len(spf):
        total = 1
        while n > 1:
            p = spf[n] or n
            n //= p
            power = p
            term = 1 + p
            while n % p == 0:
                n //= p
                power *= p
                term += power
            total *= term
        return total
    total = 1
    for p, e in factorize(n):
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


def divisors(n: int) -> list[int]:
    """All divisors of n in increasing order."""
    out = [1]
    for p, e in factorize(n):
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
    """Return (p, k) with n = p**k and p prime, k maximal; None otherwise."""
    if n < 2:
        raise ValueError(f"prime_power_decompose needs n >= 2, got {n}")
    if _SPF is not None and n < len(_SPF):
        f = factorize(n)
        return f[0] if len(f) == 1 else None
    for k in range(n.bit_length() - 1, 0, -1):
        root = _iroot(n, k)
        if root**k == n and is_prime(root):
            return root, k
    return None


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
    order = carmichael(m)
    for p, _ in factorize(order):
        while order % p == 0 and pow(r, order // p, m) == 1:
            order //= p
    return order
