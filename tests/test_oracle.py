import math

import numpy as np
import pytest

from leinster import families, oracle, verify
from leinster import numtheory as nt


def _elements(mask):
    """The element indices a subgroup bitmask holds, in increasing order."""
    return tuple(e for e in range(mask.bit_length()) if mask >> e & 1)


def _mask(elements):
    return sum(1 << e for e in elements)


def _orders(masks):
    return [mask.bit_count() for mask in masks]


def brute_subgroup_check(group, mask):
    rows = group.table.tolist()
    elems = set(_elements(mask))
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
        ([[0, 1.9], [1, 0.2]], "element indices"),  # not truncated to C2
        ([[0, 1], [1, 2**32]], "element indices"),  # not wrapped or overflowed
        ([[0, 1], [1, 2**16]], "element indices"),  # not wrapped to C2 in 16 bits
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
    for raw in ("abc", "0"):
        monkeypatch.setenv(oracle.ORDER_CAP_ENV, raw)
        message = f"{oracle.ORDER_CAP_ENV} must be a positive integer, got '{raw}'"
        with pytest.raises(ValueError, match=message):
            oracle.order_cap()
    monkeypatch.delenv(oracle.ORDER_CAP_ENV)
    assert oracle.order_cap() == oracle.DEFAULT_ORDER_CAP


def test_order_cap_ceiling_is_the_largest_16_bit_order(monkeypatch):
    # only the cap is read; no table of that size is built
    monkeypatch.setenv(oracle.ORDER_CAP_ENV, "65536")
    assert oracle.order_cap() == 65536
    monkeypatch.setenv(oracle.ORDER_CAP_ENV, "65537")
    with pytest.raises(ValueError, match=f"{oracle.ORDER_CAP_ENV} must be .* at most 65536"):
        oracle.order_cap()
    with pytest.raises(ValueError, match=oracle.ORDER_CAP_ENV):
        oracle.build_cyclic(2)


def test_every_builder_stores_a_read_only_uint16_table():
    dih = oracle.build_generalized_dihedral([2, 6])
    groups = {
        "cyclic": oracle.build_cyclic(12),
        "abelian": oracle.build_abelian([2, 6]),
        "direct product": oracle.build_direct_product(
            oracle.build_cyclic(3), oracle.build_generalized_dihedral([4])
        ),
        "Dih(A)": dih,
        "Dic(A, y)": oracle.build_generalized_dicyclic([2, 4], 4),
        "zm": oracle.build_zm(7, 6, 3),
        "affine": oracle.build_affine_prime(7),
        **{f"normal quotient {i}": q for i, q in enumerate(oracle.normal_quotients(dih))},
        "python list": oracle.FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    }
    for name, group in groups.items():
        table, n = group.table, group.order
        assert table.dtype == np.uint16, name
        assert table.nbytes == 2 * n * n, name
        assert table.flags.c_contiguous and not table.flags.writeable, name


def test_the_callers_array_is_copied_not_kept(monkeypatch):
    c3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    base = np.array(c3, dtype=np.uint16)  # already the table dtype and layout
    group = oracle.FiniteGroup(base[:, :])
    base[1, 1] = 1  # the caller's array stays writable
    assert not np.shares_memory(group.table, base)
    assert group.table.tolist() == c3
    monkeypatch.setattr(oracle, "_NORMAL_CACHE", {})  # D from the table, not the cache
    assert oracle.group_divisor_sum(group) == 4


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
    assert sorted(_orders(oracle._normal_lattice(d8))) == [1, 2, 4, 4, 4, 8]
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
    assert sorted(_orders(oracle._normal_lattice(q8))) == [1, 2, 4, 4, 4, 8]
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
    assert sorted(mask.bit_count() for mask, _ in subs) == [1, 2, 2, 2, 3, 6]
    for mask, _ in subs:
        brute_subgroup_check(s3, mask)


def test_all_subgroups_sorted_by_order_then_bitmask():
    group = oracle.build_generalized_dihedral([2, 2])
    elements = [_elements(mask) for mask, _ in oracle.all_subgroups(group)]
    assert elements == [
        (0,), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
        (0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6), (0, 3, 5, 6),
        (0, 3, 4, 7), (0, 2, 5, 7), (0, 1, 6, 7),
        (0, 1, 2, 3, 4, 5, 6, 7),
    ]
    assert elements == sorted(elements, key=lambda e: (len(e), sum(1 << x for x in e)))
    assert elements != sorted(elements, key=lambda e: (len(e), e))


def test_all_subgroups_against_naive_closure():
    def naive(group):
        rows = group.table.tolist()
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
        oracle.build_zm(19, 3, 7),  # orders above 48
        oracle.build_zm(7, 9, 2),
    ):
        fast = {_elements(mask) for mask, _ in oracle.all_subgroups(group)}
        assert fast == naive(group)


def test_enumeration_cross_validated_on_small_corpus():
    """Every family builder at order <= 30, against naive closure + full conjugation."""

    def naive_subgroups(group):
        rows = group.table.tolist()
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
        for chain in families.iter_abelian_types(15)
        if len(chain) >= 2
    ]
    groups += [oracle.build_generalized_dicyclic([2 * n], n) for n in range(2, 8)]
    groups += [
        oracle.build_generalized_dicyclic(chain, y)
        for chain in families.iter_abelian_types(12)
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
        fast = {_elements(mask): normal for mask, normal in oracle.all_subgroups(group)}
        naive = naive_subgroups(group)
        assert set(fast) == {tuple(sorted(s)) for s in naive}, group
        rows = group.table.tolist()
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
    assert sorted(_orders(oracle._normal_lattice(s3))) == [1, 3, 6]
    abelian = oracle.build_abelian([2, 6])
    assert all(normal for _, normal in oracle.all_subgroups(abelian))


def test_group_divisor_sum_exceeds_order():
    for group in (
        oracle.build_cyclic(17),
        oracle.build_generalized_dihedral([9]),
        oracle.build_zm(5, 4, 2),
        oracle.build_affine_prime(11),
    ):
        assert oracle.group_divisor_sum(group) > group.order


def permutation_group(generators):
    """Table of the group that the permutations generate, identity at index 0.

    Permutations are tuples of images and compose as (p*q)(i) = p[q[i]].
    """
    identity = tuple(range(len(generators[0])))
    elements = [identity]
    index = {identity: 0}
    for p in elements:  # grows while it is read: a breadth-first closure
        for g in generators:
            q = tuple(p[i] for i in g)
            if q not in index:
                index[q] = len(elements)
                elements.append(q)
    return oracle.FiniteGroup(
        [[index[tuple(p[i] for i in q)] for q in elements] for p in elements]
    )


def full_lattice_normals(group):
    return tuple(mask for mask, normal in oracle.all_subgroups(group) if normal)


def corpus_and_coprime_products(max_order):
    """The verify corpus to max_order and its direct-product-multiplicativity
    products, one group per distinct table."""
    corpus = list(verify._corpus(max_order))
    groups = {entry.group.digest(): entry.group for entry in corpus}
    for i, left in enumerate(corpus):
        for right in corpus[i + 1 :]:
            a, b = left.group.order, right.group.order
            if a > 1 and b > 1 and a * b <= max_order and math.gcd(a, b) == 1:
                product = oracle.build_direct_product(left.group, right.group)
                groups.setdefault(product.digest(), product)
    return list(groups.values())


def test_normal_lattice_equals_the_full_lattice_on_the_corpus(monkeypatch):
    # an empty cache, so both enumerators run on every table here
    monkeypatch.setattr(oracle, "_NORMAL_CACHE", {})
    groups = corpus_and_coprime_products(100)
    assert len(groups) == 604
    for group in groups:
        assert oracle._normal_lattice(group) == full_lattice_normals(group), group


def test_normal_subgroups_of_s4_and_a5():
    s4 = permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    a5 = permutation_group([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    assert (s4.order, a5.order) == (24, 60)
    assert _orders(oracle._normal_lattice(s4)) == [1, 4, 12, 24]
    assert oracle.group_divisor_sum(s4) == 41 == 1 + 4 + 12 + 24
    # A5 is simple, and the suite's first non-solvable group
    assert _orders(oracle._normal_lattice(a5)) == [1, 60]
    assert oracle.group_divisor_sum(a5) == 61
    for group in (s4, a5):
        assert oracle._normal_lattice(group) == full_lattice_normals(group)
        assert not oracle.is_nilpotent(group)
    assert len(oracle.all_subgroups(s4)) == 30
    assert len(oracle.all_subgroups(a5)) == 59


def test_all_subgroups_refuses_non_solvable_groups_from_order_120():
    # cyclic extension reaches only solvable subgroups, so it would miss the
    # A5 inside each of these
    s5 = permutation_group([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    a5 = permutation_group([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    a5_c2 = oracle.build_direct_product(a5, oracle.build_cyclic(2))
    for group in (s5, a5_c2):
        assert group.order == 120
        with pytest.raises(ValueError, match="not solvable"):
            oracle.all_subgroups(group)
    assert oracle.group_divisor_sum(s5) == 1 + 60 + 120


def gaussian_binomial(k, j, p):
    """The number of subgroups of order p^j in C_p^k."""
    value = 1
    for i in range(j):
        value = value * (p ** (k - i) - 1) // (p ** (i + 1) - 1)
    return value


def test_normal_lattice_of_elementary_abelian_groups_past_the_full_lattice(monkeypatch):
    # every subgroup is normal, and C2^7 has too many for the full lattice
    monkeypatch.setattr(oracle, "_NORMAL_CACHE", {})
    for p, k, total in ((2, 7, 29_212), (3, 4, 212)):
        masks = oracle._normal_lattice(oracle.build_abelian([p] * k))
        orders = [mask.bit_count() for mask in masks]
        assert orders == sorted(orders)
        assert len(orders) == total
        for j in range(k + 1):
            assert orders.count(p**j) == gaussian_binomial(k, j, p), (p, k, j)


@pytest.mark.parametrize("chain", [(2, 2, 2, 2, 4), (2, 2, 2, 4, 4), (2, 2, 2, 2, 2, 4)])
def test_generalized_dihedral_oracle_equals_the_closed_form_past_the_full_lattice(chain):
    group = oracle.build_generalized_dihedral(chain)
    assert oracle.group_divisor_sum(group) == families.generalized_dihedral_divisor_sum(chain)


def test_batches_sliced_to_one_subgroup_give_the_same_masks(monkeypatch):
    s4 = permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    a5 = permutation_group([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    groups = [s4, a5, oracle.build_abelian([2] * 5)]
    groups += {entry.group.digest(): entry.group for entry in verify._corpus(48)}.values()
    monkeypatch.setattr(oracle, "_NORMAL_CACHE", {})
    whole = [oracle._normal_lattice(group) for group in groups]

    sizes = []
    join_batch = oracle._join_batch

    def watched(table, subs, *args):
        sizes.append(subs.shape[0])
        return join_batch(table, subs, *args)

    monkeypatch.setattr(oracle, "_join_batch", watched)
    monkeypatch.setattr(oracle, "_BATCH_CELLS", 1)
    monkeypatch.setattr(oracle, "_NORMAL_CACHE", {})
    assert [oracle._normal_lattice(group) for group in groups] == whole
    assert len(sizes) > len(groups) and set(sizes) == {1}


def reference_element_orders(group):
    """The order of each element by stepping through its powers."""
    rows = group.table.tolist()
    out = [1] * group.order
    for x in range(1, group.order):
        k, y = 1, x
        while y != 0:
            y = rows[y][x]
            k += 1
        out[x] = k
    return out


def test_element_orders_equal_the_power_loop():
    s4 = permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    a5 = permutation_group([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    groups = {entry.group.digest(): entry.group for entry in verify._corpus(100)}
    for group in [s4, a5, *groups.values()]:
        assert oracle.FiniteGroup(group.table).element_orders() == reference_element_orders(group)


def test_normal_subgroups_are_the_normal_members_of_all_subgroups():
    for group in (
        oracle.build_generalized_dihedral([3]),
        oracle.build_generalized_dicyclic([4], 2),
        oracle.build_zm(7, 6, 3),
        oracle.build_affine_prime(5),
        oracle.build_abelian([2, 2, 2, 8]),
    ):
        assert list(oracle._normal_lattice(group)) == [
            mask for mask, normal in oracle.all_subgroups(group) if normal
        ]


# ---------------------------------------------------------------------------
# quotients and nilpotency


def test_quotient_examples():
    g = oracle.build_generalized_dihedral([3])
    # the normal subgroups of S3 are {1}, the rotations and S3
    assert _orders(oracle._normal_lattice(g)) == [1, 3, 6]
    lifted, by_rotations, by_whole = oracle.normal_quotients(g)
    assert by_whole.order == 1
    one = oracle.build_cyclic(1)
    assert oracle.normal_quotients(one) == [one]  # G/{1} = G/G is G itself
    assert oracle.group_divisor_sum(lifted) == oracle.group_divisor_sum(g)
    assert by_rotations.order == 2


def test_quotient_rejects_non_normal():
    s3 = oracle.build_generalized_dihedral([3])
    reflection, normal = [s for s in oracle.all_subgroups(s3) if s[0].bit_count() == 2][0]
    assert not normal
    with pytest.raises(ValueError):
        oracle._quotients(s3, [reflection])


def test_quotient_rejects_non_subgroup():
    c6 = oracle.build_cyclic(6)
    with pytest.raises(ValueError):
        oracle._quotients(c6, [_mask((0, 1))])


def reference_quotient_table(group, mask):
    """Quotient table by the coset loop the oracle used before numpy."""
    rows = group.table.tolist()
    elems = list(_elements(mask))
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
    for entry in verify._corpus(48):
        subs = oracle._normal_lattice(entry.group)
        batched = oracle.normal_quotients(entry.group)
        assert len(batched) == len(subs)
        for sub, quot in zip(subs, batched):
            want = reference_quotient_table(entry.group, sub)
            assert quot.table.tolist() == want, (entry.label, _elements(sub))
            checked += 1
    assert checked > 1000


def test_quotient_divisor_sums_follow_the_correspondence_theorem():
    # the normal subgroups of G/N are the M/N for the normal M of G holding N,
    # so D(G/N) is the sum of |M|/|N| over those M, without building G/N
    pairs = 0
    for entry in verify._corpus(48):
        masks = oracle._normal_lattice(entry.group)
        for sub, quot in zip(masks, oracle.normal_quotients(entry.group)):
            want = sum(m.bit_count() for m in masks if m & sub == sub) // sub.bit_count()
            assert oracle.group_divisor_sum(quot) == want, (entry.label, sub)
            pairs += 1
    assert pairs == 3890


def test_quotient_batches_sliced_to_one_subgroup_give_the_same_tables(monkeypatch):
    s4 = permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    groups = [s4, oracle.build_abelian([2] * 5), oracle.build_generalized_dihedral([2, 2, 4])]
    whole = [[q.table.tolist() for q in oracle.normal_quotients(g)] for g in groups]
    assert [len(tables) for tables in whole] == [
        sum(normal for _, normal in oracle.all_subgroups(g)) for g in groups
    ]

    sizes = []
    quotient_batch = oracle._quotient_batch

    def watched(table, subs, *args):
        sizes.append(subs.shape[0])
        return quotient_batch(table, subs, *args)

    monkeypatch.setattr(oracle, "_quotient_batch", watched)
    monkeypatch.setattr(oracle, "_BATCH_CELLS", 1)
    assert [[q.table.tolist() for q in oracle.normal_quotients(g)] for g in groups] == whole
    assert len(sizes) > 300 and set(sizes) == {1}


def test_equal_quotient_tables_of_one_batch_are_one_group():
    klein = oracle.build_abelian([2, 2])
    trivial, *order_two, whole = oracle.normal_quotients(klein)
    assert trivial is klein and whole.order == 1
    assert len(order_two) == 3 and all(q is order_two[0] for q in order_two)


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0, 4), "quotient requires a normal subgroup"),  # a reflection
        ((0, 1), "quotient requires a subgroup: set is not closed"),
        ((0, 1, 2, 4), "quotient requires a subgroup: set is not closed"),
        ((0, 4, 5, 6), "quotient requires a subgroup: set is not closed"),
    ],
)
def test_a_bad_mask_in_a_batch_of_normal_ones_raises_the_quotient_error(bad, message):
    # in D8, 0..3 are the rotations and 4..7 the reflections
    d8 = oracle.build_generalized_dihedral([4])
    with pytest.raises(ValueError) as alone:
        oracle._quotients(d8, [_mask(bad)])
    assert str(alone.value) == message
    normal = [m for m in oracle._normal_lattice(d8) if m.bit_count() == len(bad)]
    assert normal  # the bad mask joins a batch of normal subgroups of its order
    for at in (0, len(normal)):
        masks = normal[:at] + [_mask(bad)] + normal[at:]
        with pytest.raises(ValueError) as batched:
            oracle._quotients(d8, masks)
        assert str(batched.value) == message


def test_quotients_reject_a_mask_without_the_identity():
    s3 = oracle.build_generalized_dihedral([3])
    with pytest.raises(ValueError, match="identity"):
        oracle._quotients(s3, [_mask((1, 2))])


def test_is_nilpotent():
    assert oracle.is_nilpotent(oracle.build_cyclic(12))
    assert not oracle.is_nilpotent(oracle.build_generalized_dihedral([3]))
    assert oracle.is_nilpotent(oracle.build_generalized_dicyclic([4], 2))  # Q8


def reference_is_nilpotent(group):
    """The Sylow-subgroup test is_nilpotent ran on the full lattice before."""
    subs = oracle.all_subgroups(group)
    for p, e in nt.factorize(group.order):
        sylows = [normal for mask, normal in subs if mask.bit_count() == p**e]
        assert sylows, f"no Sylow subgroup of order {p**e} found"
        if not all(sylows):
            return False
    return True


def test_is_nilpotent_matches_the_sylow_test_on_the_corpus():
    verdicts = []
    for entry in verify._corpus(100):
        verdict = oracle.is_nilpotent(entry.group)
        assert verdict == reference_is_nilpotent(entry.group), entry.label
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def test_the_oracle_factors_each_group_order_once(monkeypatch):
    monkeypatch.setattr(oracle, "_NORMAL_CACHE", {})
    oracle._order_facts.cache_clear()
    groups = [
        oracle.build_cyclic(24),
        oracle.build_generalized_dihedral([12]),
        oracle.build_generalized_dicyclic([12], 6),
        oracle.build_abelian([2, 2, 6]),
        oracle.build_zm(7, 6, 3),
        oracle.build_affine_prime(7),
    ]
    calls = []
    factorize = nt.factorize
    monkeypatch.setattr(nt, "factorize", lambda n: calls.append(n) or factorize(n))
    for group in groups:
        oracle.group_divisor_sum(group)
        oracle.all_subgroups(group)
        oracle.is_nilpotent(group)
    oracle._order_facts.cache_clear()  # no other test sees the counted entries
    assert sorted(calls) == [24, 42]
    for n in (1, 2, 24, 42, 64, 360, 510):
        factors, divisors = oracle._order_facts(n)
        assert factors == nt.factorize(n) and list(divisors) == nt.divisors(n)


def test_element_orders_and_cyclicity():
    c12 = oracle.build_cyclic(12)
    assert c12.is_cyclic()
    assert c12.element_orders()[1] == 12
    klein = oracle.build_abelian([2, 2])
    assert not klein.is_cyclic()
    assert max(klein.element_orders()) == 2


def test_elementary_abelian_counts_match_gaussian_binomials():
    """Subgroup counts of C_p^k per order, against the closed-form count."""
    for p, kmax, total in ((2, 6, 2825), (3, 4, 212), (5, 3, 64)):
        for k in range(1, kmax + 1):
            group = oracle.build_abelian([p] * k)
            subs = oracle.all_subgroups(group)
            for j in range(k + 1):
                expected = gaussian_binomial(k, j, p)
                assert _orders(m for m, _ in subs).count(p**j) == expected, (p, k, j)
        assert len(subs) == total == sum(gaussian_binomial(kmax, j, p) for j in range(kmax + 1))
