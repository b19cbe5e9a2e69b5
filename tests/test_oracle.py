import math

import numpy as np
import pytest

from leinster import numtheory as nt
from leinster import oracle, verify


def brute_subgroup_check(group, sub):
    rows = group.rows
    elems = set(sub.elements)
    assert 0 in elems
    for a in elems:
        for b in elems:
            assert rows[a][b] in elems
    assert group.order % len(elems) == 0  # Lagrange


# ---------------------------------------------------------------------------
# construction and validation


def test_rejects_broken_tables():
    # a loop of order 5: Latin square with identity, not associative
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    broken = (
        ([[0, 1], [1, 1]], "Latin square"),
        ([[1, 0], [0, 1]], "identity"),
        ([[0, 1], [1, 2]], "element indices"),
        (loop, "not associative"),
    )
    # validation is remembered only for tables that pass it
    for _ in range(2):
        for table, reason in broken:
            with pytest.raises(ValueError, match=reason):
                oracle.FiniteGroup(table)
    oracle.build_cyclic(5)
    with pytest.raises(ValueError, match="not associative"):
        oracle.FiniteGroup(loop)

    first = oracle.build_generalized_dihedral([2, 6])
    second = oracle.FiniteGroup(first.table.tolist())
    assert second.digest() == first.digest()
    assert second.generators() == first.generators()


def test_order_cap_enforced(monkeypatch):
    monkeypatch.setenv(oracle.ORDER_CAP_ENV, "16")
    assert oracle.order_cap() == 16
    with pytest.raises(oracle.OrderCapError):
        oracle.build_cyclic(17)
    oracle.build_cyclic(16)
    monkeypatch.delenv(oracle.ORDER_CAP_ENV)
    assert oracle.order_cap() == oracle.DEFAULT_ORDER_CAP


def test_build_cyclic():
    trivial = oracle.build_cyclic(1)
    assert trivial.order == 1
    assert oracle.group_divisor_sum(trivial) == 1
    c6 = oracle.build_cyclic(6)
    assert oracle.group_divisor_sum(c6) == 12
    assert oracle.group_divisor_sum(oracle.build_cyclic(2)) == 3
    with pytest.raises(ValueError):
        oracle.build_cyclic(0)


def test_direct_product():
    c2, c3 = oracle.build_cyclic(2), oracle.build_cyclic(3)
    assert oracle.group_divisor_sum(oracle.build_direct_product(c2, c3)) == 12
    g = oracle.build_generalized_dihedral([4])
    trivial = oracle.build_cyclic(1)
    assert oracle.group_divisor_sum(
        oracle.build_direct_product(g, trivial)
    ) == oracle.group_divisor_sum(g)
    klein = oracle.build_direct_product(c2, c2)
    assert oracle.group_divisor_sum(klein) == 11


def test_generalized_dihedral():
    s3 = oracle.build_generalized_dihedral([3])
    assert s3.order == 6
    assert oracle.group_divisor_sum(s3) == 10 == 1 + 3 + 6
    d8 = oracle.build_generalized_dihedral([4])
    assert sorted(s.order for s in oracle.normal_subgroups(d8)) == [1, 2, 4, 4, 4, 8]
    assert oracle.group_divisor_sum(d8) == 23
    dih22 = oracle.build_generalized_dihedral([2, 2])
    assert dih22.order == 8
    assert oracle.group_divisor_sum(dih22) == 51
    assert oracle.build_generalized_dihedral([]).order == 2


def test_generalized_dicyclic():
    dic12 = oracle.build_generalized_dicyclic([6], 3)
    assert dic12.order == 12
    assert oracle.group_divisor_sum(dic12) == 24
    q8 = oracle.build_generalized_dicyclic([4], 2)
    assert oracle.group_divisor_sum(q8) == 23
    assert sorted(s.order for s in oracle.normal_subgroups(q8)) == [1, 2, 4, 4, 4, 8]
    with pytest.raises(ValueError):
        oracle.build_generalized_dicyclic([2], 1)  # |A| = 2n needs n > 1
    with pytest.raises(ValueError):
        oracle.build_generalized_dicyclic([3, 3], 4)  # odd |A|
    with pytest.raises(ValueError):
        oracle.build_generalized_dicyclic([6], 2)  # y of order 3


def test_order_two_helper():
    a = oracle.build_abelian([6])
    assert oracle.order_two_elements(a) == [3]
    klein = oracle.build_abelian([2, 2])
    assert oracle.order_two_elements(klein) == [1, 2, 3]


def test_build_zm():
    g = oracle.build_zm(7, 6, 3)
    assert g.order == 42
    assert np.array_equal(oracle.build_zm(1, 6, 1).table, oracle.build_cyclic(6).table)
    assert oracle.group_divisor_sum(oracle.build_zm(13, 6, 4)) == 157
    with pytest.raises(ValueError):
        oracle.build_zm(6, 2, 5)  # gcd(m, n) = 2
    with pytest.raises(ValueError):
        oracle.build_zm(7, 6, 1)  # gcd(m, r-1) = 7


def test_build_affine_prime():
    assert oracle.build_affine_prime(2).order == 2
    a3 = oracle.build_affine_prime(3)
    assert a3.order == 6
    assert oracle.group_divisor_sum(a3) == 10
    a7 = oracle.build_affine_prime(7)
    assert a7.order == 42
    assert oracle.group_divisor_sum(a7) == 85 == 1 + 7 * nt.divisor_sum(6)
    with pytest.raises(ValueError):
        oracle.build_affine_prime(4)


# ---------------------------------------------------------------------------
# subgroup enumeration


def test_all_subgroups_counts():
    assert len(oracle.all_subgroups(oracle.build_cyclic(6))) == 4
    s3 = oracle.build_generalized_dihedral([3])
    subs = oracle.all_subgroups(s3)
    assert len(subs) == 6
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 3, 6]
    for sub in subs:
        brute_subgroup_check(s3, sub)


def test_all_subgroups_against_naive_closure():
    def naive(group):
        rows = group.rows
        n = group.order

        def closure(seed):
            elems = set(seed) | {0}
            frontier = list(elems)
            while frontier:
                fresh = []
                for u in frontier:
                    for v in list(elems):
                        for w in (rows[u][v], rows[v][u]):
                            if w not in elems:
                                elems.add(w)
                                fresh.append(w)
                frontier = fresh
            return frozenset(elems)

        found = {closure([x]) for x in range(n)}
        queue = list(found)
        while queue:
            current = queue.pop()
            for x in range(n):
                if x in current:
                    continue
                bigger = closure(set(current) | {x})
                if bigger not in found:
                    found.add(bigger)
                    queue.append(bigger)
        return {tuple(sorted(s)) for s in found}

    for group in (
        oracle.build_generalized_dihedral([6]),
        oracle.build_generalized_dicyclic([6], 3),
        oracle.build_zm(7, 6, 3),
        oracle.build_affine_prime(5),
        oracle.build_abelian([2, 4]),
    ):
        fast = {s.elements for s in oracle.all_subgroups(group)}
        assert fast == naive(group)


def test_enumeration_cross_validated_on_small_corpus():
    """Every family builder at order <= 30, against naive closure + full conjugation."""

    def naive_subgroups(group):
        rows = group.rows
        n = group.order

        def closure(seed):
            elems = set(seed) | {0}
            frontier = list(elems)
            while frontier:
                fresh = []
                for u in frontier:
                    for v in list(elems):
                        for w in (rows[u][v], rows[v][u]):
                            if w not in elems:
                                elems.add(w)
                                fresh.append(w)
                frontier = fresh
            return frozenset(elems)

        found = {closure([x]) for x in range(n)}
        queue = list(found)
        while queue:
            current = queue.pop()
            for x in range(n):
                if x not in current:
                    bigger = closure(set(current) | {x})
                    if bigger not in found:
                        found.add(bigger)
                        queue.append(bigger)
        return found

    groups = [oracle.build_cyclic(n) for n in range(1, 31)]
    groups += [oracle.build_generalized_dihedral([n]) for n in range(1, 16)]
    groups += [
        oracle.build_generalized_dihedral(chain)
        for chain in oracle.abelian_types(15)
        if len(chain) >= 2
    ]
    groups += [oracle.build_generalized_dicyclic([2 * n], n) for n in range(2, 8)]
    groups += [
        oracle.build_generalized_dicyclic(chain, y)
        for chain in oracle.abelian_types(12)
        if len(chain) >= 2 and math.prod(chain) % 2 == 0 and math.prod(chain) > 2
        for y in oracle.order_two_elements(oracle.build_abelian(chain))
    ]
    groups += [
        oracle.build_zm(m, n, r)
        for m, n, r in [(3, 2, 2), (5, 2, 4), (5, 4, 2), (7, 3, 2), (7, 6, 3), (9, 2, 8), (15, 2, 14)]
    ]
    groups += [oracle.build_affine_prime(p) for p in (2, 3, 5)]
    groups += [
        oracle.build_direct_product(oracle.build_cyclic(a), oracle.build_generalized_dihedral([b]))
        for a, b in [(3, 4), (5, 3), (2, 5)]
    ]

    for group in groups:
        fast = {s.elements: s.is_normal for s in oracle.all_subgroups(group)}
        naive = naive_subgroups(group)
        assert set(fast) == {tuple(sorted(s)) for s in naive}, group
        rows = group.rows
        inv = group.inverses()
        for elements, flagged in fast.items():
            members = set(elements)
            conjugation_stable = all(
                rows[rows[g][h]][inv[g]] in members
                for g in range(group.order)
                for h in elements
            )
            assert flagged == conjugation_stable, (group, elements)


def test_normal_subgroups():
    s3 = oracle.build_generalized_dihedral([3])
    assert sorted(s.order for s in oracle.normal_subgroups(s3)) == [1, 3, 6]
    abelian = oracle.build_abelian([2, 6])
    assert all(s.is_normal for s in oracle.all_subgroups(abelian))


def test_group_divisor_sum_exceeds_order():
    for group in (
        oracle.build_cyclic(17),
        oracle.build_generalized_dihedral([9]),
        oracle.build_zm(5, 4, 2),
        oracle.build_affine_prime(11),
    ):
        assert oracle.group_divisor_sum(group) > group.order


# ---------------------------------------------------------------------------
# quotients and nilpotency


def test_quotient_examples():
    g = oracle.build_generalized_dihedral([3])
    whole = [s for s in oracle.normal_subgroups(g) if s.order == 6][0]
    assert oracle.quotient(g, whole).order == 1
    trivial = [s for s in oracle.normal_subgroups(g) if s.order == 1][0]
    lifted = oracle.quotient(g, trivial)
    assert oracle.group_divisor_sum(lifted) == oracle.group_divisor_sum(g)
    rotations = [s for s in oracle.normal_subgroups(g) if s.order == 3][0]
    assert oracle.quotient(g, rotations).order == 2


def test_quotient_rejects_non_normal():
    s3 = oracle.build_generalized_dihedral([3])
    reflection = [s for s in oracle.all_subgroups(s3) if s.order == 2][0]
    assert not reflection.is_normal
    with pytest.raises(ValueError):
        oracle.quotient(s3, reflection)


def test_quotient_rejects_non_subgroup():
    c6 = oracle.build_cyclic(6)
    with pytest.raises(ValueError):
        oracle.quotient(c6, oracle.Subgroup((0, 1), True))


def reference_quotient_table(group, sub):
    """Quotient table by the coset loop the oracle used before numpy."""
    rows = group.rows
    elems = list(sub.elements)
    rep_of = [-1] * group.order
    reps = []
    for x in range(group.order):
        if rep_of[x] >= 0:
            continue
        for a in elems:
            rep_of[rows[a][x]] = x
        reps.append(x)
    index = {x: i for i, x in enumerate(reps)}
    return [[index[rep_of[rows[a][b]]] for b in reps] for a in reps]


def test_quotient_matches_the_coset_loop_on_the_corpus():
    checked = 0
    for entry in verify._build_corpus(48):
        for sub in oracle.normal_subgroups(entry.group):
            quot = oracle.quotient(entry.group, sub)
            assert quot.table.tolist() == reference_quotient_table(entry.group, sub), (
                entry.label,
                sub.elements,
            )
            checked += 1
    assert checked > 1000


def test_quotient_rejects_missing_identity_and_outside_elements():
    s3 = oracle.build_generalized_dihedral([3])
    with pytest.raises(ValueError, match="identity"):
        oracle.quotient(s3, oracle.Subgroup((1, 2), True))
    with pytest.raises(ValueError, match="outside"):
        oracle.quotient(s3, oracle.Subgroup((0, 6), True))
    with pytest.raises(ValueError, match="outside"):
        oracle.quotient(s3, oracle.Subgroup((0, -1), True))


def test_is_nilpotent():
    assert oracle.is_nilpotent(oracle.build_cyclic(12))
    assert not oracle.is_nilpotent(oracle.build_generalized_dihedral([3]))
    assert oracle.is_nilpotent(oracle.build_generalized_dicyclic([4], 2))  # Q8


def test_element_orders_and_cyclicity():
    c12 = oracle.build_cyclic(12)
    assert c12.is_cyclic()
    assert c12.element_order(1) == 12
    klein = oracle.build_abelian([2, 2])
    assert not klein.is_cyclic()
    assert max(klein.element_orders()) == 2


def test_elementary_abelian_counts_match_gaussian_binomials():
    """Subgroup counts of C_p^k per order, against the closed-form count."""

    def gaussian(k, j, p):
        value = 1
        for i in range(j):
            value = value * (p ** (k - i) - 1) // (p ** (i + 1) - 1)
        return value

    for p, kmax in ((2, 6), (3, 3), (5, 2)):
        for k in range(1, kmax + 1):
            group = oracle.build_abelian([p] * k)
            subs = oracle.all_subgroups(group)
            for j in range(k + 1):
                expected = gaussian(k, j, p)
                assert sum(1 for s in subs if s.order == p**j) == expected, (p, k, j)


def test_abelian_types():
    types = oracle.abelian_types(8)
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

