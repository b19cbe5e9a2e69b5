import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leinster import families as fam
from leinster import numtheory as nt
from leinster import oracle, search
from leinster.families import GroupKind
from class_reference import reference_kind
from zm_reference import zm_canonical


# ---------------------------------------------------------------------------
# triple validation


def test_zm_validate_examples():
    assert fam.zm_validate(7, 6, 3) == fam.ZMTriple(7, 6, 3)
    assert fam.zm_validate(6, 2, 5) is None  # gcd(m, n) = 2
    assert fam.zm_validate(7, 6, 1) is None  # gcd(m, r-1) = 7
    assert fam.zm_validate(7, 6, 10) == fam.ZMTriple(7, 6, 3)  # r reduced
    assert fam.zm_validate(1, 6, 1) == fam.ZMTriple(1, 6, 0)  # degenerate cyclic
    with pytest.raises(ValueError):
        fam.zm_validate(0, 6, 3)


def test_zm_invalid_reason_names_condition():
    assert "gcd(m, n)" in fam.zm_invalid_reason(6, 2, 5)
    assert "gcd(m, r-1)" in fam.zm_invalid_reason(7, 6, 1)
    assert "r^n" in fam.zm_invalid_reason(7, 4, 3)
    assert fam.zm_invalid_reason(7, 6, 3) is None


# ---------------------------------------------------------------------------
# lattice triples


def test_normal_triples_763():
    triples = fam.zm_normal_triples(fam.ZMTriple(7, 6, 3))
    assert len(triples) == 5
    assert sorted(t.subgroup_order for t in triples) == [1, 7, 14, 21, 42]
    assert sum(t.subgroup_order for t in triples) == 85
    assert all(t.s == 0 for t in triples)


def test_normal_triples_cyclic_degeneration():
    triples = fam.zm_normal_triples(fam.ZMTriple(1, 6, 0))
    assert sorted(t.subgroup_order for t in triples) == [1, 2, 3, 6]


def test_normal_triples_1364_match_oracle():
    triple = fam.zm_validate(13, 6, 4)
    orders = sorted(t.subgroup_order for t in fam.zm_normal_triples(triple))
    brute = sorted(
        mask.bit_count() for mask in oracle._normal_lattice(oracle.build_zm(13, 6, 4))
    )
    assert orders == brute == [1, 13, 26, 39, 78]
    assert sum(orders) == 157


def test_subgroup_triples_match_oracle_counts():
    for m, n, r in [(7, 6, 3), (13, 6, 4), (5, 4, 2), (9, 2, 8), (21, 2, 20)]:
        triple = fam.zm_validate(m, n, r)
        assert triple is not None
        count = len(fam.zm_subgroup_triples(triple))
        assert count == len(oracle.all_subgroups(oracle.build_zm(m, n, r)))


def test_subgroup_triples_contain_normal_triples():
    for m, n, r in [(7, 6, 3), (13, 6, 4), (85, 4, 38)]:
        triple = fam.zm_validate(m, n, r)
        big = {(t.m1, t.n1, t.s) for t in fam.zm_subgroup_triples(triple)}
        small = {(t.m1, t.n1, t.s) for t in fam.zm_normal_triples(triple)}
        assert small <= big


def test_subgroup_triples_cyclic_degeneration():
    triples = fam.zm_subgroup_triples(fam.ZMTriple(1, 6, 0))
    assert len(triples) == 4  # one per divisor of 6


# ---------------------------------------------------------------------------
# divisor sums


def test_zm_divisor_sum_examples():
    assert fam.zm_divisor_sum(fam.ZMTriple(7, 6, 3)) == 85
    assert fam.zm_divisor_sum(fam.ZMTriple(1, 6, 0)) == 12 == nt.divisor_sum(6)
    assert fam.zm_divisor_sum(fam.zm_validate(13, 6, 4)) == 157


@pytest.mark.parametrize(
    "p, r",
    [
        (1099511627791, 3),
        (205891132094653, 3),
        (4130164685530175207, 2),
        (11986884559589190443, 931068673820554443),
        (588749953463891556096143, 529449304763850998312227),
    ],
)
def test_zm_divisor_sum_paper_identity_above_2_to_the_40(p, r):
    # D(ZM(p, p-1, r)) = p * sigma(p-1) + sigma((p-1) / ord_p(r)), with the
    # right-hand side computed by sympy
    sympy = pytest.importorskip("sympy")
    n = p - 1
    expected = p * int(sympy.divisor_sigma(n)) + int(
        sympy.divisor_sigma(n // int(sympy.n_order(r, p)))
    )
    triple = fam.zm_validate(p, n, r)
    assert triple is not None
    assert fam.zm_divisor_sum(triple) == expected


def test_zm_divisor_sum_handles_huge_parameters():
    triple = fam.zm_validate(137438691329, 137438691328, 3)
    assert triple is not None
    total = fam.zm_divisor_sum(triple)
    assert total == 2 * triple.order + 1


def test_zm_canonical():
    # the reference representative, and the one the dedupe enumerator keeps
    assert zm_canonical(fam.ZMTriple(7, 6, 5)) == fam.ZMTriple(7, 6, 3)
    assert zm_canonical(fam.ZMTriple(7, 6, 3)) == fam.ZMTriple(7, 6, 3)
    assert zm_canonical(fam.ZMTriple(13, 6, 10)) == fam.ZMTriple(13, 6, 4)
    assert [r for _, _, r in search._zm_triples(7, 6, 6, dedupe=True)] == [2, 3, 6]
    assert [r for _, _, r in search._zm_triples(13, 6, 6, dedupe=True)] == [3, 4, 12]


def test_affine_divisor_sum():
    assert fam.affine_divisor_sum(7) == 85
    assert fam.affine_divisor_sum(2) == 3
    assert fam.affine_divisor_sum(4) == 17 == 1 + 4 * nt.divisor_sum(3)
    with pytest.raises(ValueError):
        fam.affine_divisor_sum(6)
    with pytest.raises(ValueError):
        fam.affine_divisor_sum(1)


def test_affine_classify():
    # Aff(F_q) by the standard definitions, as `classify` gives it
    assert search.run_classify("affine", [7]).kind is GroupKind.QUASI_LEINSTER
    assert search.run_classify("affine", [2]).kind is GroupKind.ALMOST_LEINSTER
    five = search.run_classify("affine", [5])
    assert five.kind is GroupKind.DEFICIENT and five.D == 36
    assert fam.classify_kind(fam.affine_divisor_sum(5), 5 * 4) is GroupKind.DEFICIENT


def test_dihedral_divisor_sum():
    assert fam.dihedral_divisor_sum(3) == 10
    assert fam.dihedral_divisor_sum(4) == 23
    assert fam.dihedral_divisor_sum(1) == 3
    with pytest.raises(ValueError):
        fam.dihedral_divisor_sum(0)


def test_generalized_dihedral_agrees_with_cyclic_case():
    for n in range(1, 51):
        assert fam.generalized_dihedral_divisor_sum([n]) == fam.dihedral_divisor_sum(n)


def test_generalized_dihedral_examples():
    assert fam.generalized_dihedral_divisor_sum([2, 2]) == 51
    assert fam.generalized_dihedral_divisor_sum([1]) == 3
    assert fam.generalized_dihedral_divisor_sum([]) == 3  # Dih(1) = C2
    assert fam.generalized_dihedral_divisor_sum([6, 4]) == 348
    assert fam.generalized_dihedral_divisor_sum([3, 5]) == fam.dihedral_divisor_sum(15)
    assert fam.generalized_dihedral_divisor_sum([1, 2]) == fam.dihedral_divisor_sum(2)
    # factor lists that are not invariant-factor chains
    for factors in ([2, 2], [6, 4], [3, 5], [1, 2], [4, 1, 6]):
        assert fam.generalized_dihedral_divisor_sum(factors) == oracle.group_divisor_sum(
            oracle.build_generalized_dihedral(factors)
        ), factors
    for bad in ([0], [2, 0], [3, -2]):
        with pytest.raises(ValueError):
            fam.generalized_dihedral_divisor_sum(bad)


def _per_factor_dihedral_sum(factors):
    # the former evaluation: each factor factored on its own
    exponents = {}
    for f in factors:
        for p, e in nt.factorize(f):
            exponents.setdefault(p, []).append(e)
    lattice_sum = math.prod(
        fam._p_group_subgroup_order_sum(p, tuple(sorted(exps, reverse=True)))
        for p, exps in exponents.items()
    )
    r = len(exponents.get(2, ()))
    return lattice_sum + 2 * math.prod(factors) * fam._subgroup_count_2(r)


def test_generalized_dihedral_factors_a_chain_once_as_each_factor_alone(monkeypatch):
    chains = list(fam.iter_abelian_types(2000))
    assert len(chains) == 4278  # every abelian group of order <= 2000, the trivial one too
    m61, m89 = 2**61 - 1, 2**89 - 1  # Mersenne primes: their product is past rho's budget
    others = [(6, 10, 15), (4, 1, 6), (12, 18), (5, 7, 11), (8, 12, 9, 1), (2**40, 3**5, 6)]
    others += [(1, 1), (m61, m89), (2, m61, 4 * m89), (m61, 2 * m61), (2 * m89, 6 * m89)]
    for factors in chains + others:
        assert fam.generalized_dihedral_divisor_sum(factors) == _per_factor_dihedral_sum(
            factors
        ), factors
    calls = []
    factorize = nt.factorize
    monkeypatch.setattr(nt, "factorize", lambda n: calls.append(n) or factorize(n))
    fam.generalized_dihedral_divisor_sum((2, 6, 12))
    assert calls == [12]  # a chain: one factorization, of its largest factor
    calls.clear()
    fam.generalized_dihedral_divisor_sum((6, 10, 15))
    assert calls == [6, 10, 15]  # not a chain: each factor alone


def _oracle_on_a_dihedral_sum(chain):
    # the former implementation: enumerate A's subgroup lattice with the oracle
    a = oracle.build_abelian(chain)
    subs = oracle.all_subgroups(a)
    rows = a.table.tolist()
    squares = sum(1 << y for y in {rows[x][x] for x in range(a.order)})  # as a bitmask
    containing = sum(1 for mask, _ in subs if mask & squares == squares)
    return sum(mask.bit_count() for mask, _ in subs) + 2 * a.order * containing


def test_abelian_types():
    types = list(fam.iter_abelian_types(8))
    assert types == [
        (),
        (2,),
        (3,),
        (2, 2),
        (4,),
        (5,),
        (6,),
        (7,),
        (2, 2, 2),
        (2, 4),
        (8,),
    ]


def _depth_first_abelian_types(max_order):
    # the former iter_abelian_types: every chain d1 | d2 | ... | dk (d1 >= 2)
    # of product <= max_order, depth first, then sorted by (order, chain)
    def extend(chain, prod):
        yield chain
        last = chain[-1]
        d = last
        while prod * d <= max_order:
            yield from extend(chain + (d,), prod * d)
            d += last

    def walk():
        yield ()
        for d in range(2, max_order + 1):
            yield from extend((d,), d)

    return sorted(walk(), key=lambda c: (math.prod(c), c))


def test_abelian_types_by_order_equal_the_depth_first_walk():
    # The walk at a bound m is its walk at 3000 cut to the chains of order
    # <= m, and the stream at m is its stream at 3000 cut after order m (it
    # goes one order at a time), so the two agree at every m <= 3000.
    # Small bounds are compared whole as well, for the cut itself.
    full = list(fam.iter_abelian_types(3000))
    assert full == _depth_first_abelian_types(3000)
    assert len(full) == 6493  # the trivial group's empty chain included
    for m in range(0, 300):
        assert list(fam.iter_abelian_types(m)) == _depth_first_abelian_types(m), m
    per_order = [0] * 3001
    for chain in full:
        per_order[math.prod(chain)] += 1
    # the count a gen-dihedral sweep's budget gate takes: the product over
    # p^e || n of the partitions of e
    assert per_order[1:] == [
        math.prod(len(fam._partitions(e)) for _, e in nt.factorize(n)) for n in range(1, 3001)
    ]


def _partitions(k, largest=None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def test_partitions_and_abelian_type_counts():
    # the partition numbers p(1), ..., p(12)
    counts = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for k, count in enumerate(counts, 1):
        assert sorted(fam._partitions(k)) == sorted(_partitions(k))
        assert len(fam._partitions(k)) == count
    # the abelian groups of order n number the product over p^e || n of p(e)
    n = 2**4 * 3**2 * 5 * 7**2
    orders = [math.prod(chain) for chain in fam.iter_abelian_types(n)]
    assert orders.count(1) == 1
    assert orders.count(n) == 5 * 2 * 1 * 2


def _uncached_p_group_subgroup_order_sum(p, exponents):
    # Birkhoff's sum as it was before it was cached: any order of the parts
    def gauss(n, k):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        return num // den

    columns = [sum(1 for e in exponents if e >= i) for i in range(1, max(exponents) + 1)]
    totals = [1]
    for lam in reversed(columns):
        totals = [
            p**a
            * sum(
                w * p ** (b * (lam - a)) * gauss(lam - b, a - b)
                for b, w in enumerate(totals[: a + 1])
            )
            for a in range(lam + 1)
        ]
    return sum(totals)


def _uncached_generalized_dihedral_divisor_sum(factors):
    exponents = {}
    for f in factors:
        for p, e in nt.factorize(f):
            exponents.setdefault(p, []).append(e)
    lattice_sum = math.prod(
        _uncached_p_group_subgroup_order_sum(p, exps) for p, exps in exponents.items()
    )
    r = len(exponents.get(2, ()))
    containing = sum(fam._gaussian_binomial(r, k, 2) for k in range(r + 1))
    return lattice_sum + 2 * math.prod(factors) * containing


def test_cached_birkhoff_sum_equals_the_uncached_body():
    for p in (2, 3, 5):
        for k in range(1, 11):
            for lam in _partitions(k):
                assert fam._p_group_subgroup_order_sum(p, lam) == (
                    _uncached_p_group_subgroup_order_sum(p, lam)
                ), (p, lam)
    # factor lists that are not chains: the parts of one prime out of order,
    # so the cache must be keyed by the sorted partition
    for factors in ([2, 4, 3], [4, 2], [8, 2, 4, 9, 3], [3, 9, 27, 5], [12, 18, 2], [1, 7, 49]):
        assert fam.generalized_dihedral_divisor_sum(factors) == (
            _uncached_generalized_dihedral_divisor_sum(factors)
        ), factors
        assert fam.generalized_dihedral_divisor_sum(factors[::-1]) == (
            _uncached_generalized_dihedral_divisor_sum(factors)
        ), factors
    for r in range(12):
        assert fam._subgroup_count_2(r) == sum(
            fam._gaussian_binomial(r, k, 2) for k in range(r + 1)
        )


def test_generalized_dihedral_closed_form_matches_oracle_on_a():
    chains = list(fam.iter_abelian_types(127))
    assert len(chains) == 232  # the trivial group's empty chain included
    for chain in chains:
        assert fam.generalized_dihedral_divisor_sum(chain) == _oracle_on_a_dihedral_sum(
            chain
        ), chain


def test_generalized_dihedral_closed_form_matches_oracle_on_dih_a():
    for chain in fam.iter_abelian_types(32):
        assert fam.generalized_dihedral_divisor_sum(chain) == oracle.group_divisor_sum(
            oracle.build_generalized_dihedral(chain)
        ), chain


def test_generalized_dihedral_beyond_the_oracle_cap():
    # A = C2^9: subgroup orders sum_k 2^k [9, k]_2, and 8283458 subgroups
    # all contain A^2 = 1, each adding 2|A| = 1024
    gauss = [1]
    for k in range(1, 10):
        gauss.append(gauss[-1] * (2 ** (10 - k) - 1) // (2**k - 1))
    assert sum(gauss) == 8283458
    want = sum(2**k * g for k, g in enumerate(gauss)) + 1024 * sum(gauss)
    assert fam.generalized_dihedral_divisor_sum([2] * 9) == want == 8703733139
    assert fam.generalized_dihedral_divisor_sum([1024]) == fam.dihedral_divisor_sum(1024)


def test_families_does_not_import_the_oracle():
    assert not hasattr(fam, "oracle")


def test_dicyclic_divisor_sum():
    assert fam.dicyclic_divisor_sum(3) == 24
    assert fam.dicyclic_divisor_sum(2) == 23
    assert fam.dicyclic_divisor_sum(5) == 38
    with pytest.raises(ValueError):
        fam.dicyclic_divisor_sum(1)


def test_pq_divisor_sum():
    assert fam.pq_divisor_sum(2, 3) == 10
    assert fam.pq_divisor_sum(2, 3) == oracle.group_divisor_sum(
        oracle.build_generalized_dihedral([3])
    )
    assert fam.pq_divisor_sum(3, 7) == 29
    assert fam.pq_divisor_sum(3, 7) == oracle.group_divisor_sum(oracle.build_zm(7, 3, 2))
    assert fam.pq_divisor_sum(2, 5) == 16
    assert fam.pq_divisor_sum(2, 5) == oracle.group_divisor_sum(
        oracle.build_generalized_dihedral([5])
    )
    with pytest.raises(ValueError):
        fam.pq_divisor_sum(3, 5)  # 3 does not divide 4
    with pytest.raises(ValueError):
        fam.pq_divisor_sum(4, 7)
    with pytest.raises(ValueError):
        fam.pq_divisor_sum(5, 3)


# ---------------------------------------------------------------------------
# classification


def test_classify_kind_examples():
    assert fam.classify_kind(24, 12) is GroupKind.LEINSTER
    assert fam.classify_kind(85, 42) is GroupKind.QUASI_LEINSTER
    assert fam.classify_kind(1, 1) is GroupKind.ALMOST_LEINSTER
    with pytest.raises(ValueError):
        fam.classify_kind(0, 1)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 10**9), st.integers(1, 10**6))
def test_classify_kind_trichotomy(D, order):
    kind = fam.classify_kind(D, order)
    if kind is GroupKind.QUASI_LEINSTER:
        assert D > 2 * order
    if kind is GroupKind.ALMOST_LEINSTER:
        assert D < 2 * order
    others = [
        D == 2 * order,
        D > 2 * order,
        D < 2 * order,
    ]
    assert sum(others) == 1


# rows with D within 2 of 2 * order, rows anywhere, and rows with D or order below 1
NEAR_ROWS = st.integers(1, 2**70).flatmap(
    lambda order: st.tuples(st.integers(2 * order - 2, 2 * order + 2), st.just(order))
)
ANY_ROWS = st.tuples(st.integers(1, 2**72), st.integers(1, 2**70))
LOW_ROWS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=400, deadline=None)
@given(st.lists(NEAR_ROWS | ANY_ROWS | LOW_ROWS, max_size=8), st.booleans())
def test_classify_kinds_follows_the_comparison_chain(rows, as_tuples):
    Ds, orders = [D for D, _ in rows], [order for _, order in rows]
    if as_tuples:  # `_evaluate_batch` may pass tuple columns
        Ds, orders = tuple(Ds), tuple(orders)
    try:
        want = [reference_kind(D, order) for D, order in rows]
    except ValueError as exc:  # the first row with D or order below 1
        with pytest.raises(ValueError) as column:
            fam.classify_kinds(Ds, orders)
        first = next(row for row in rows if min(row) < 1)
        with pytest.raises(ValueError) as one:
            fam.classify_kind(*first)
        assert str(column.value) == str(one.value) == str(exc)
    else:
        assert fam.classify_kinds(Ds, orders) == want
        assert [fam.classify_kind(D, order) for D, order in rows] == want


def test_nilpotent_classify():
    # a cyclic group classifies exactly as its order does, D(C_n) = sigma(n)
    assert fam.classify_kind(nt.divisor_sum(6), 6) is GroupKind.LEINSTER
    assert fam.classify_kind(nt.divisor_sum(8), 8) is GroupKind.ALMOST_LEINSTER
    assert search.run_classify("cyclic", [12]).kind is GroupKind.ABUNDANT
    assert search.run_classify("cyclic", [10]).kind is GroupKind.DEFICIENT
    # a non-cyclic nilpotent group lands above 2n + 1: the Klein four-group,
    # Dih(C2), has D = 11 > 2*4 + 1
    klein = oracle.build_abelian([2, 2])
    assert oracle.group_divisor_sum(klein) == 11 > 2 * 4 + 1
    assert fam.classify_kind(11, 4) is GroupKind.ABUNDANT
    dih_c2 = search.run_classify("gen-dihedral", [2])
    assert (dih_c2.order, dih_c2.D, dih_c2.kind) == (4, 11, GroupKind.ABUNDANT)


def test_cyclic_nilpotent_matches_oracle():
    for n in range(1, 80):
        kind = search.run_classify("cyclic", [n]).kind
        total = oracle.group_divisor_sum(oracle.build_cyclic(n))
        assert fam.classify_kind(total, n) is kind


# ---------------------------------------------------------------------------
# formula-versus-oracle agreement across families


def test_zm_formula_oracle_agreement_to_400():
    count = 0
    for m in range(2, 201):
        for n in range(2, 400 // m + 1):
            if math.gcd(m, n) != 1:
                continue
            for r in range(2, m):
                triple = fam.zm_validate(m, n, r)
                if triple is None:
                    continue
                count += 1
                group = oracle.build_zm(m, n, r)
                formula = fam.zm_divisor_sum(triple)
                normal_sum = sum(
                    t.subgroup_order for t in fam.zm_normal_triples(triple)
                )
                brute = oracle.group_divisor_sum(group)
                assert formula == normal_sum == brute, (m, n, r)
                if m * n <= 200:
                    assert len(fam.zm_subgroup_triples(triple)) == len(
                        oracle.all_subgroups(group)
                    ), (m, n, r)
                    assert len(fam.zm_normal_triples(triple)) == len(
                        oracle._normal_lattice(group)
                    ), (m, n, r)
    assert count == 802


def test_dihedral_formula_oracle_agreement_to_60():
    for n in range(1, 61):
        assert fam.dihedral_divisor_sum(n) == oracle.group_divisor_sum(
            oracle.build_generalized_dihedral([n])
        ), n


def test_dicyclic_formula_oracle_agreement_to_60():
    for n in range(2, 61):
        assert fam.dicyclic_divisor_sum(n) == oracle.group_divisor_sum(
            oracle.build_generalized_dicyclic([2 * n], n)
        ), n


def test_affine_formula_oracle_agreement_primes_to_19():
    for q in (2, 3, 5, 7, 11, 13, 17, 19):
        assert fam.affine_divisor_sum(q) == oracle.group_divisor_sum(
            oracle.build_affine_prime(q)
        ), q


def test_pq_formula_oracle_agreement_to_200():
    for q in range(3, 101):
        if not nt.is_prime(q):
            continue
        for p in range(2, q):
            if p * q > 200 or not nt.is_prime(p) or (q - 1) % p:
                continue
            r = next(r for r in range(2, q) if pow(r, p, q) == 1)
            assert fam.pq_divisor_sum(p, q) == oracle.group_divisor_sum(
                oracle.build_zm(q, p, r)
            ), (p, q)


def test_noncyclic_generalized_dihedral_strictly_abundant():
    for chain in fam.iter_abelian_types(32):
        if len(chain) < 2:
            continue
        group = oracle.build_generalized_dihedral(chain)
        assert oracle.group_divisor_sum(group) > 2 * group.order + 1, chain


def test_dicyclic_lower_bound():
    for chain in fam.iter_abelian_types(24):
        size = math.prod(chain)
        if size % 2 or size <= 2:
            continue
        base = oracle.build_abelian(chain)
        base_sum = oracle.group_divisor_sum(base)
        for y in oracle.order_two_elements(base):
            group = oracle.build_generalized_dicyclic(chain, y)
            assert oracle.group_divisor_sum(group) >= 2 * size + base_sum, (chain, y)


def test_sigma_of_2n_from_sigma_of_n():
    # sigma(2n) = sigma(n) (2^(v+2) - 1) / (2^(v+1) - 1), 2^v exactly dividing n
    for n in [*range(1, 5000), 2**40, 3 * 2**41, 10**12 + 4]:
        v = (n & -n).bit_length() - 1
        two_n = nt.divisor_sum(2 * n)
        assert two_n == nt.divisor_sum(n) * (2 ** (v + 2) - 1) // (2 ** (v + 1) - 1), n


@pytest.mark.parametrize(
    "lo, hi",
    [(2, 3000), (2, 2), (4000, 3999), (nt.SIEVE_CAP - 500, nt.SIEVE_CAP + 500),
     (10**9, 10**9 + 500)],
)
def test_dihedral_and_dicyclic_columns_equal_their_per_n_forms(lo, hi):
    ns = range(lo, hi + 1)
    assert fam.dihedral_divisor_sums(lo, hi) == list(map(fam.dihedral_divisor_sum, ns))
    assert fam.dicyclic_divisor_sums(lo, hi) == list(map(fam.dicyclic_divisor_sum, ns))
    with pytest.raises(ValueError):
        fam.dicyclic_divisor_sums(1, hi)
    with pytest.raises(ValueError):
        fam.dihedral_divisor_sums(0, hi)
