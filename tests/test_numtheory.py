import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leinster import numtheory as nt
from leinster.families import GroupKind, classify_kind


def sigma_sieve(limit):
    """Independent divisor-sum oracle: sieve over multiples."""
    out = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            out[multiple] += d
    return out


# ---------------------------------------------------------------------------
# divisor_sum, and the class of a number: that of C_n, as D(C_n) = sigma(n)


def number_class(n):
    return classify_kind(nt.divisor_sum(n), n)


@pytest.mark.parametrize(
    "n, expected",
    [(6, 12), (1, 1), (28, 56), (8, 15)],
)
def test_divisor_sum_examples(n, expected):
    assert nt.divisor_sum(n) == expected


def test_divisor_sum_rejects_zero():
    with pytest.raises(ValueError):
        nt.divisor_sum(0)


def test_classify_examples():
    assert number_class(6) is GroupKind.LEINSTER  # perfect
    # almost perfect: deficient, with sigma(8) = 15 = 2 * 8 - 1
    assert number_class(8) is GroupKind.ALMOST_LEINSTER
    # direct divisor enumeration: sigma(12) = 1+2+3+4+6+12 = 28 > 25
    assert sum(d for d in range(1, 13) if 12 % d == 0) == 28
    assert number_class(12) is GroupKind.ABUNDANT  # not quasi perfect


def test_classify_rejects_zero():
    with pytest.raises(ValueError):
        number_class(0)


def test_one_is_deficient_and_almost_perfect():
    assert nt.divisor_sum(1) < 2 * 1
    assert number_class(1) is GroupKind.ALMOST_LEINSTER


def test_divisor_sum_matches_sieve_to_10000():
    sieve = sigma_sieve(10000)
    for n in range(1, 10001):
        assert nt.divisor_sum(n) == sieve[n]
        kind = number_class(n)
        # perfect, abundant or deficient; almost perfect is deficient and
        # quasi perfect abundant
        if kind is GroupKind.LEINSTER:
            assert sieve[n] == 2 * n
        elif kind in (GroupKind.ABUNDANT, GroupKind.QUASI_LEINSTER):
            assert sieve[n] > 2 * n
        else:
            assert sieve[n] < 2 * n
        assert (kind is GroupKind.ALMOST_LEINSTER) == (sieve[n] == 2 * n - 1)
        assert (kind is GroupKind.QUASI_LEINSTER) == (sieve[n] == 2 * n + 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_divisor_sum_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert nt.divisor_sum(a * b) == nt.divisor_sum(a) * nt.divisor_sum(b)


# ---------------------------------------------------------------------------
# primality and factoring


def test_is_prime_examples():
    assert nt.is_prime(7)
    assert not nt.is_prime(2047)  # 23 * 89
    assert 2047 == 23 * 89
    assert nt.is_prime(137438691329)
    assert not nt.is_prime(0) and not nt.is_prime(1)


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(5000):
        assert nt.is_prime(n) == trial(n), n


def test_is_prime_above_64_bits():
    m89 = (1 << 89) - 1
    assert nt.is_prime(m89)
    assert not nt.is_prime(m89 + 2)


# psi_k: the least odd composite that is a strong pseudoprime to each of the
# first k prime bases (OEIS A014233); the first k bases decide every n < psi_k
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    8: 341550071728321,
    9: 3825123056546413051,
    10: 3825123056546413051,
    11: 3825123056546413051,
    12: 318665857834031151167461,
    13: 3317044064679887385961981,
}


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_miller_rabin_witnesses_are_the_first_primes_up_to_their_psi():
    # rounds to the first k primes decide every n < psi_k and no more, so the
    # k-th witness must be the k-th prime and its limit at most psi_k; the
    # exact range reaches psi_13
    for k, (a, limit) in enumerate(nt._WITNESSES, start=1):
        assert a == FIRST_PRIMES[k - 1] and limit <= PSI[k], k
    assert nt._WITNESSES[-1][1] == PSI[13]


@pytest.mark.parametrize("k", sorted(PSI))
def test_is_prime_rejects_the_strong_pseudoprime_psi_k(k):
    # psi_k passes a round to each of the first k bases, so it is reported
    # composite only if a later witness runs on it: letting the first k
    # witnesses decide psi_k, as a limit moved past it would, fails this test
    psi = PSI[k]
    assert all(_strong_probable_prime(psi, a) for a in FIRST_PRIMES[:k])
    assert not nt.is_prime(psi)


def test_is_prime_matches_sympy_up_to_psi_13():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    numbers = [rng.randrange(1 << 64, PSI[13]) | 1 for _ in range(3000)]
    # below 2^64, 200 odd n from each range between one psi_k and the next,
    # decided by the first k witnesses
    bounds = sorted(set(PSI.values()))
    for low, high in zip([3] + bounds, bounds):
        if low < 1 << 64:
            numbers += [rng.randrange(low, min(high, 1 << 64)) | 1 for _ in range(200)]
    for psi in bounds:
        numbers += range(psi - 10, psi + 11, 2)  # every psi_k is odd
    for n in numbers:
        assert nt.is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize(
    "n, expected",
    [
        (12, ((2, 2), (3, 1))),
        (1, ()),
        (728, ((2, 3), (7, 1), (13, 1))),
    ],
)
def test_factorize_examples(n, expected):
    assert nt.factorize(n) == expected


def test_factorize_round_trips():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 10**9)
        fac = nt.factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        for p, e in fac:
            assert nt.is_prime(p) and e >= 1


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        nt.factorize(0)


def test_factorize_gives_up_loudly(monkeypatch):
    hard = ((1 << 61) - 1) * ((1 << 89) - 1)
    monkeypatch.setattr(nt, "_TRIAL_BOUND", 100)
    monkeypatch.setattr(nt, "_RHO_BUDGET", 50)
    with pytest.raises(nt.FactorizationError):
        nt.factorize(hard)


def _random_prime(rng, low, high):
    while True:
        x = rng.randrange(low, high)
        if nt.is_prime(x):
            return x


def _factors_of(primes):
    return tuple(sorted(Counter(primes).items()))


def test_factorize_short_trial_division_matches_long(monkeypatch):
    rng = random.Random(2024)
    numbers = [rng.randrange(1, 1 << 64) for _ in range(200)]
    short = [nt.factorize(n) for n in numbers]
    monkeypatch.setattr(nt, "_TRIAL_BOUND", 10**6)
    for n, factors in zip(numbers, short):
        assert nt.factorize(n) == factors, n


def test_factorize_primes_past_trial_division_with_a_small_rho_budget(monkeypatch):
    # every prime lies between the default trial bound (2^12) and 10^6, so
    # rho splits them all; a few thousand steps suffice
    rng = random.Random(12)
    cases = []
    for count in range(2, 9):
        cases.append([_random_prime(rng, 1 << 12, 10**6) for _ in range(count)])
    for _ in range(6):
        p = _random_prime(rng, 1 << 12, 10**6)
        q = _random_prime(rng, 1 << 12, 10**6)
        cases += [[p, p], [p, p, p], [p, p, q], [p, p, p, q, q]]
    monkeypatch.setattr(nt, "_RHO_BUDGET", 10_000)
    for primes in cases:
        n = math.prod(primes)
        assert nt.factorize(n) == _factors_of(primes), primes


def _split_p_minus_1_shapes():
    # n = 2 * s * t * q as p - 1 is built in the classify-big benchmark:
    # s below 2^10, t in (2^21, 2^23), q a large prime
    rng = random.Random(5)
    out = []
    for _ in range(12):
        s = _random_prime(rng, 5, 1 << 10)
        t = _random_prime(rng, (1 << 21) + 1, 1 << 23)
        q = _random_prime(rng, 1 << 30, 1 << 56)
        out.append([2, s, t, q])
    return out


def test_factorize_split_p_minus_1_shapes():
    for primes in _split_p_minus_1_shapes():
        n = math.prod(primes)
        fac = nt.factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(nt.is_prime(p) for p, _ in fac)
        assert fac == _factors_of(primes)


def test_factorize_split_p_minus_1_shapes_match_sympy():
    sympy = pytest.importorskip("sympy")
    for primes in _split_p_minus_1_shapes():
        n = math.prod(primes)
        assert dict(nt.factorize(n)) == sympy.factorint(n)


def _factorize_by_trial_division(n):
    """The factorizer before the gcd: trial division by 2, 3 and the 6k +- 1
    up to the trial bound or the square root, then rho on the cofactor."""
    counts = Counter()
    m = n
    for p in (2, 3):
        while m % p == 0:
            counts[p] += 1
            m //= p
    d = 5
    while d <= nt._TRIAL_BOUND and d * d <= m:
        for q in (d, d + 2):
            while m % q == 0:
                counts[q] += 1
                m //= q
        d += 6
    budget = [nt._RHO_BUDGET]
    stack = [m] if m > 1 else []
    while stack:
        x = stack.pop()
        if d * d > x or nt.is_prime(x):
            counts[x] += 1
            continue
        f = nt._brent_rho(x, budget)
        stack += [f, x // f]
    return tuple(sorted(counts.items()))


def _random_factorize_inputs(rng, count):
    # random n below 2^70, and products of primes on both sides of the trial
    # bounds tested below (100, 2^12 and 10^6), some of them repeated
    out = [rng.randrange(1, 1 << 70) for _ in range(count)]
    for _ in range(count):
        primes = [_random_prime(rng, 2, 1 << rng.choice((7, 13, 21))) for _ in range(rng.randrange(1, 6))]
        out.append(math.prod(primes) * rng.choice(primes) ** rng.randrange(3))
    return out


@pytest.mark.parametrize("bound", [None, 100, 10**6])
def test_factorize_equals_trial_division(monkeypatch, bound):
    if bound is not None:
        monkeypatch.setattr(nt, "_TRIAL_BOUND", bound)
    rng = random.Random(70)
    numbers = list(range(1, 5000)) + _random_factorize_inputs(rng, 30 if bound == 10**6 else 120)
    for n in numbers:
        assert nt.factorize(n) == _factorize_by_trial_division(n), n


def test_divisors():
    assert nt.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert nt.divisors(1) == [1]


# ---------------------------------------------------------------------------
# prime powers, Mersenne and perfect machinery


@pytest.mark.parametrize(
    "n, expected",
    [(8, (2, 3)), (29, (29, 1)), (12, None), (4096, (2, 12)), (36, None)],
)
def test_prime_power_decompose(n, expected):
    assert nt.prime_power_decompose(n) == expected


def test_prime_power_rejects_small():
    with pytest.raises(ValueError):
        nt.prime_power_decompose(1)


def test_lucas_lehmer_examples():
    assert nt.lucas_lehmer(3)
    assert not nt.lucas_lehmer(11)  # 2047 = 23 * 89
    assert nt.lucas_lehmer(13)
    with pytest.raises(ValueError):
        nt.lucas_lehmer(1)


def test_lucas_lehmer_agrees_with_is_prime_to_61():
    for r in range(2, 62):
        assert nt.lucas_lehmer(r) == nt.is_prime((1 << r) - 1), r


def _even_perfect_by_exponent():
    exponents = nt.verified_mersenne_exponents()
    rows = nt.perfect_plus_one(len(exponents))
    return {r: perfect for r, (_, perfect, _) in zip(exponents, rows)}


@pytest.mark.parametrize("r, expected", [(2, 6), (4, None), (19, 137438691328)])
def test_even_perfect(r, expected):
    # row i of perfect_plus_one holds 2**(r-1) * (2**r - 1) for the i-th
    # Mersenne exponent r; an r whose 2**r - 1 is composite has no row
    assert _even_perfect_by_exponent().get(r) == expected
    assert nt.lucas_lehmer(r) == (expected is not None)


def test_even_perfect_values_classify_perfect():
    for r, value in _even_perfect_by_exponent().items():
        assert value == (1 << (r - 1)) * ((1 << r) - 1)
        assert number_class(value) is GroupKind.LEINSTER


def test_perfect_plus_one_counts():
    assert nt.perfect_plus_one(1) == [(1, 6, 7)]
    assert nt.perfect_plus_one(2) == [(1, 6, 7), (2, 28, 29)]
    assert nt.perfect_plus_one(3) == [(1, 6, 7), (2, 28, 29), (3, 496, None)]
    for count in (8, 12):
        rows = nt.perfect_plus_one(count)
        assert [i for i, _, _ in rows] == list(range(1, count + 1))
        assert [i for i, _, p in rows if p is not None] == [1, 2, 5, 7]


def test_perfect_plus_one_hits_are_plain_primes():
    for _, perfect, p in nt.perfect_plus_one(12):
        want = None if p is None else (p, 1)
        assert nt.prime_power_decompose(perfect + 1) == want


def test_perfect_plus_one_count_bounds():
    with pytest.raises(ValueError):
        nt.perfect_plus_one(0)
    with pytest.raises(ValueError):
        nt.perfect_plus_one(13)


def _prime_power_by_every_root(n):
    """(p, k) with n = p**k, k maximal, by trying every k below the bit length."""
    for k in range(n.bit_length() - 1, 0, -1):
        low, high = 1, 1 << (n.bit_length() // k + 1)
        while low < high:  # the least root with root**k >= n
            mid = (low + high) // 2
            low, high = (mid + 1, high) if mid**k < n else (low, mid)
        if low**k == n and nt.is_prime(low):
            return low, k
    return None


def _prime_power_inputs():
    # 4099 is the least prime above the trial bound 2^12, so 4099^k comes
    # within a factor (4099/4096)^k of 2^(12k): a bound on k from the bit
    # length alone, such as bit_length // 13, misses it from about k = 13
    out = [4099**k for k in range(1, 41)]
    for q in (2, 3, 5, 7, 4093):
        out += [q**k * 4099 for k in range(1, 8)]
        out += [q**k for k in range(1, 40)]
        out += [q**k * 4099**k for k in range(1, 5)]
    out += [2**k * 3 for k in range(1, 20)] + [6**k for k in range(1, 20)]
    out += [(4099 * 4111) ** k for k in range(1, 8)]
    out += [perfect + 1 for _, perfect, _ in nt.perfect_plus_one(12)]
    return out


def test_prime_power_decompose_equals_every_root():
    for n in _prime_power_inputs():
        assert nt.prime_power_decompose(n) == _prime_power_by_every_root(n), n
    assert nt.prime_power_decompose(4099**40) == (4099, 40)


# ---------------------------------------------------------------------------
# multiplicative order


def test_mult_order_examples():
    assert nt.mult_order(3, 7) == 6
    assert nt.mult_order(2, 7) == 3
    for m in (1, 2, 5, 12, 100):
        assert nt.mult_order(1, m) == 1


def test_mult_order_rejects_common_factor():
    with pytest.raises(ValueError):
        nt.mult_order(6, 9)


def test_mult_order_postcondition_random():
    rng = random.Random(42)
    done = 0
    while done < 200:
        m = rng.randrange(2, 10**6)
        r = rng.randrange(1, m)
        if math.gcd(r, m) != 1:
            continue
        d = nt.mult_order(r, m)
        assert pow(r, d, m) == 1
        for p, _ in nt.factorize(d):
            assert pow(r, d // p, m) != 1
        done += 1


def test_carmichael_values():
    assert nt.carmichael(1) == 1
    assert nt.carmichael(8) == 2
    assert nt.carmichael(15) == 4
    assert nt.carmichael(7) == 6


# ---------------------------------------------------------------------------
# sigma against the product over factorize, and the large-n paths


def _sigma_from_factors(n):
    """sigma(n) as the product of (p^(e+1) - 1) / (p - 1) over factorize(n)."""
    return math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in nt.factorize(n))


def test_divisor_sum_equals_the_product_over_factorize_to_2_to_the_16():
    numbers = range(1, 2**16 + 1)
    assert [nt.divisor_sum(n) for n in numbers] == [_sigma_from_factors(n) for n in numbers]
    assert nt.divisor_sum(1) == 1
    for p in (2, 3, 251, 65521):  # primes, the last the largest below 2^16
        assert nt.divisor_sum(p) == p + 1
    for p, k in ((2, 15), (2, 16), (3, 10), (7, 5), (251, 2)):  # prime powers
        assert nt.divisor_sum(p**k) == (p ** (k + 1) - 1) // (p - 1)
    with pytest.raises(ValueError):
        nt.divisor_sum(0)


def test_large_and_edge_inputs_take_the_general_paths():
    big = 2**61 - 1
    assert nt.is_prime(big)
    assert nt.factorize(big * 3) == ((3, 1), (big, 1))
    assert nt.prime_power_decompose(7**30) == (7, 30)
    assert nt.divisor_sum(101 * 103) == 102 * 104
    assert nt.factorize(1) == ()
    assert not nt.is_prime(0) and not nt.is_prime(1)
    with pytest.raises(ValueError):
        nt.divisor_sum(0)
    with pytest.raises(ValueError):
        nt.prime_power_decompose(1)


def _is_prime_by_trial(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primes_equal_trial_division():
    for limit in (-1, 0, 1, 2, 3, 4, 100, 10**4 + 7):
        assert nt.primes(limit) == [n for n in range(2, limit + 1) if _is_prime_by_trial(n)]


@settings(max_examples=200, deadline=None)
@given(st.integers(nt.SIEVE_CAP + 1, 2**40))
def test_divisor_sum_above_the_sieve_cap(n):
    total = nt.divisor_sum(n)
    assert total == _sigma_from_factors(n) == sum(nt.divisors(n))


# ---------------------------------------------------------------------------
# segmented sieves: divisor sums of a window, the prime-power stream


def test_divisor_sums_equal_divisor_sum_to_10_to_the_5():
    limit = 10**5
    expected = [nt.divisor_sum(n) for n in range(1, limit + 1)]
    assert nt.divisor_sums(1, limit) == expected
    # a window starting anywhere, prime powers and their neighbours included
    for lo, hi in ((1, 1), (2, 2), (4095, 4097), (65535, 65537), (99_000, limit)):
        assert nt.divisor_sums(lo, hi) == expected[lo - 1 : hi]
    assert nt.divisor_sums(5, 4) == [] == nt.divisor_sums(0, -1)
    with pytest.raises(ValueError):
        nt.divisor_sums(0, 5)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (nt.SIEVE_CAP - 4096, nt.SIEVE_CAP + 4096),  # around 2^22
        (10**9 - 1000, 10**9 + 1000),
        (10**12 - 200, 10**12 + 200),
        (nt.SIEVE_CAP**2 - 40, nt.SIEVE_CAP**2 - 1),  # the last windows sieved
        (nt.SIEVE_CAP**2 - 20, nt.SIEVE_CAP**2 + 20),  # past the cut: one n at a time
    ],
)
def test_divisor_sums_equal_divisor_sum_on_large_windows(lo, hi):
    assert nt.divisor_sums(lo, hi) == [nt.divisor_sum(n) for n in range(lo, hi + 1)]


def test_divisor_sums_past_the_cut_take_divisor_sum(monkeypatch):
    called = []
    monkeypatch.setattr(nt, "divisor_sum", lambda n: called.append(n) or _sigma_from_factors(n))
    assert nt.divisor_sums(nt.SIEVE_CAP**2 - 10, nt.SIEVE_CAP**2 - 1) != []
    assert called == []
    window = range(nt.SIEVE_CAP**2 - 1, nt.SIEVE_CAP**2 + 10)
    assert nt.divisor_sums(window[0], window[-1]) == list(map(_sigma_from_factors, window))
    assert called == list(window)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**10), st.integers(0, 300))
def test_divisor_sums_of_any_window(lo, width):
    hi = lo + width - 1
    assert nt.divisor_sums(lo, hi) == [nt.divisor_sum(n) for n in range(lo, hi + 1)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**10), st.integers(0, 300))
def test_factorizations_of_any_window(lo, width):
    hi = lo + width - 1
    assert nt.factorizations(lo, hi) == [nt.factorize(n) for n in range(lo, hi + 1)]


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1, 5000),  # lo = 1, whose factorization is ()
        (24, 26), (119, 122), (65521**2 - 50, 65521**2 + 50),  # straddling p^2
        (1, 1), (2, 2), (4096, 4096), (2**32 - 5, 2**32 - 5),  # windows of one
        (2**32 - 300, 2**32 - 1),  # hi near 2^32: a prime above isqrt(hi) left over
        (nt.SIEVE_CAP**2 - 20, nt.SIEVE_CAP**2 + 20),  # past the cut: one n at a time
    ],
)
def test_factorizations_equal_factorize(lo, hi):
    window = nt.factorizations(lo, hi)
    assert window == [nt.factorize(n) for n in range(lo, hi + 1)]
    if hi == 2**32 - 1:
        assert any(fs[-1][0] > math.isqrt(hi) for fs in window)


def test_factorizations_of_an_empty_window_and_below_one():
    assert nt.factorizations(5, 4) == [] == nt.factorizations(0, -1)
    for window in (nt.divisor_sums, nt.factorizations):
        with pytest.raises(ValueError, match="need n >= 1"):
            window(0, 5)


def test_factorizations_past_the_cut_take_factorize(monkeypatch):
    factorize, called = nt.factorize, []
    monkeypatch.setattr(nt, "factorize", lambda n: called.append(n) or factorize(n))
    assert nt.factorizations(nt.SIEVE_CAP**2 - 10, nt.SIEVE_CAP**2 - 1) != []
    assert called == []
    window = range(nt.SIEVE_CAP**2 - 1, nt.SIEVE_CAP**2 + 10)
    assert nt.factorizations(window[0], window[-1]) == list(map(factorize, window))
    assert called == list(window)


def test_prime_powers_stream_equals_the_filtered_range():
    window = nt._WINDOW
    limit = max(10**5, 2 * window + 1)
    expected = [q for q in range(2, limit + 1) if nt.prime_power_decompose(q) is not None]
    for small in (-1, 0, 1, 2, 3, 4, 8, 9, window - 1, window, window + 1, 10**5, limit):
        assert list(nt.prime_powers(small)) == [q for q in expected if q <= small]


def test_prime_powers_stream_above_the_sieve_cap():
    lo, hi = nt.SIEVE_CAP - 3000, nt.SIEVE_CAP + 3000
    stream = [q for q in nt.prime_powers(hi) if q >= lo]
    assert stream == [q for q in range(lo, hi + 1) if nt.prime_power_decompose(q) is not None]
    assert nt.SIEVE_CAP in stream  # 2^22
