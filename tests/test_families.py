import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leinster import families as fam
from leinster import numtheory as nt
from leinster import oracle
from leinster.families import GroupKind


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
        s.order for s in oracle.normal_subgroups(oracle.build_zm(13, 6, 4))
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


def test_zm_divisor_sum_handles_huge_parameters():
    triple = fam.zm_validate(137438691329, 137438691328, 3)
    assert triple is not None
    total = fam.zm_divisor_sum(triple)
    assert total == 2 * triple.order + 1


def test_zm_canonical():
    assert fam.zm_canonical(fam.ZMTriple(7, 6, 5)) == fam.ZMTriple(7, 6, 3)
    assert fam.zm_canonical(fam.ZMTriple(7, 6, 3)) == fam.ZMTriple(7, 6, 3)
    assert fam.zm_canonical(fam.ZMTriple(13, 6, 10)) == fam.ZMTriple(13, 6, 4)


def test_affine_divisor_sum():
    assert fam.affine_divisor_sum(7) == 85
    assert fam.affine_divisor_sum(2) == 3
    assert fam.affine_divisor_sum(4) == 17 == 1 + 4 * nt.divisor_sum(3)
    with pytest.raises(ValueError):
        fam.affine_divisor_sum(6)
    with pytest.raises(ValueError):
        fam.affine_divisor_sum(1)


def test_affine_classify():
    assert fam.affine_classify(7).kind is GroupKind.QUASI_LEINSTER
    assert fam.affine_classify(2).kind is GroupKind.ALMOST_LEINSTER
    five = fam.affine_classify(5)
    assert five.kind is GroupKind.DEFICIENT and five.D == 36


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


def _oracle_on_a_dihedral_sum(chain):
    # the former implementation: enumerate A's subgroup lattice with the oracle
    a = oracle.build_abelian(chain)
    subs = oracle.all_subgroups(a)
    squares = {a.rows[x][x] for x in range(a.order)}
    containing = sum(1 for s in subs if squares.issubset(s.elements))
    return sum(s.order for s in subs) + 2 * a.order * containing


def test_generalized_dihedral_closed_form_matches_oracle_on_a():
    chains = oracle.abelian_types(127)
    assert len(chains) == 232  # the trivial group's empty chain included
    for chain in chains:
        assert fam.generalized_dihedral_divisor_sum(chain) == _oracle_on_a_dihedral_sum(
            chain
        ), chain


def test_generalized_dihedral_closed_form_matches_oracle_on_dih_a():
    for chain in oracle.abelian_types(32):
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


def test_classify_group_examples():
    assert fam.classify_group(24, 12).kind is GroupKind.LEINSTER
    assert fam.classify_group(85, 42).kind is GroupKind.QUASI_LEINSTER
    assert fam.classify_group(1, 1).kind is GroupKind.ALMOST_LEINSTER
    with pytest.raises(ValueError):
        fam.classify_group(0, 1)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 10**9), st.integers(1, 10**6))
def test_classify_group_trichotomy(D, order):
    kind = fam.classify_group(D, order).kind
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


def test_nilpotent_classify():
    assert fam.nilpotent_classify(6, True) is GroupKind.LEINSTER
    assert fam.nilpotent_classify(8, True) is GroupKind.ALMOST_LEINSTER
    assert fam.nilpotent_classify(4, False) is GroupKind.ABUNDANT
    # the Klein four-group realizes the non-cyclic case: D = 11 > 2*4 + 1
    klein = oracle.build_abelian([2, 2])
    assert oracle.group_divisor_sum(klein) == 11 > 2 * 4 + 1
    assert fam.nilpotent_classify(12, True) is GroupKind.ABUNDANT
    assert fam.nilpotent_classify(10, True) is GroupKind.DEFICIENT


def test_cyclic_nilpotent_matches_oracle():
    for n in range(1, 80):
        kind = fam.nilpotent_classify(n, True)
        total = oracle.group_divisor_sum(oracle.build_cyclic(n))
        assert fam.classify_group(total, n).kind is kind


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
                        oracle.normal_subgroups(group)
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
    for chain in oracle.abelian_types(32):
        if len(chain) < 2:
            continue
        group = oracle.build_generalized_dihedral(chain)
        assert oracle.group_divisor_sum(group) > 2 * group.order + 1, chain


def test_dicyclic_lower_bound():
    for chain in oracle.abelian_types(24):
        size = math.prod(chain)
        if size % 2 or size <= 2:
            continue
        base = oracle.build_abelian(chain)
        base_sum = oracle.group_divisor_sum(base)
        for y in oracle.order_two_elements(base):
            group = oracle.build_generalized_dicyclic(chain, y)
            assert oracle.group_divisor_sum(group) >= 2 * size + base_sum, (chain, y)
