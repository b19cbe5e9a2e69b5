"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every timing bound is asserted, not just reported.
"""

import math
import random
import time

from leinster import families, numtheory, oracle, search, verify
from leinster.families import GroupKind
from leinster.search import SweepConfig

QUASI = frozenset({GroupKind.QUASI_LEINSTER})
NEAR = frozenset(
    {GroupKind.LEINSTER, GroupKind.QUASI_LEINSTER, GroupKind.ALMOST_LEINSTER}
)

# Pre-frozen, oracle-verified result of the general-mode quasi sweep with
# m <= 20, n <= 10 (computed by brute force ahead of the implementation).
GENERAL_QUASI_TRIPLES = [
    (7, 6, 3),
    (7, 6, 5),
    (13, 6, 4),
    (13, 6, 10),
    (19, 6, 8),
    (19, 6, 12),
]


def report(name, passed):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}")
    assert passed


def test_criterion_1_zm763_three_paths_agree():
    start = time.perf_counter()
    triple = families.zm_validate(7, 6, 3)
    closed_form = families.zm_divisor_sum(triple)
    triple_sum = sum(t.subgroup_order for t in families.zm_normal_triples(triple))
    brute = oracle.group_divisor_sum(oracle.build_zm(7, 6, 3))
    elapsed = time.perf_counter() - start
    kind = families.classify_kind(closed_form, 42)
    report(
        "C1 zm(7,6,3) three-path",
        closed_form == triple_sum == brute == 85
        and kind is GroupKind.QUASI_LEINSTER
        and elapsed < 1.0,
    )


def test_criterion_2_paper_mode_and_large_instances():
    records = list(
        search.run_sweep(
            SweepConfig(
                family="zm",
                bounds={"max_m": 30},
                paper_mode=True,
                fixed_r=3,
                classes=QUASI,
            )
        )
    )
    sweep_ok = [r.params for r in records] == [(7, 6, 3), (29, 28, 3)]

    big_ok = True
    for m in (33550337, 137438691329):
        start = time.perf_counter()
        record = search.run_classify("zm", [m, m - 1, 3])
        elapsed = time.perf_counter() - start
        big_ok = (
            big_ok
            and record.kind is GroupKind.QUASI_LEINSTER
            and record.D == 2 * record.order + 1
            and elapsed < 10.0
        )
    report("C2 paper-mode sweep + large classifications", sweep_ok and big_ok)


def test_criterion_3_general_quasi_sweep_exceeds_paper_mode():
    records = list(
        search.run_sweep(
            SweepConfig(family="zm", bounds={"max_m": 20, "max_n": 10}, classes=QUASI)
        )
    )
    found = [r.params for r in records]
    frozen_ok = found == GENERAL_QUASI_TRIPLES

    oracle_ok = True
    for m, n, r in found:
        total = oracle.group_divisor_sum(oracle.build_zm(m, n, r))
        oracle_ok = oracle_ok and total == 2 * m * n + 1

    paper_records = list(
        search.run_sweep(
            SweepConfig(
                family="zm",
                bounds={"max_m": 20, "max_n": 10},
                paper_mode=True,
                classes=QUASI,
            )
        )
    )
    paper_set = {r.params for r in paper_records}
    strictly_larger = paper_set < set(found)
    report(
        "C3 general quasi sweep (oracle-verified frozen set)",
        frozen_ok and oracle_ok and strictly_larger,
    )


def test_criterion_4_perfect_plus_one():
    start = time.perf_counter()
    rows = numtheory.perfect_plus_one(8)
    elapsed = time.perf_counter() - start
    solutions = tuple(i for i, _, p in rows if p is not None)
    exponent_ok = all(
        numtheory.prime_power_decompose(perfect + 1) == (p, 1)
        for i, perfect, p in rows
        if p is not None
    )
    report(
        "C4 perfect-plus-one count=8",
        solutions == (1, 2, 5, 7) and exponent_ok and elapsed < 5.0,
    )


def test_criterion_5_dicyclic_sweep():
    records = list(
        search.run_sweep(
            SweepConfig(family="dicyclic", bounds={"min_n": 2, "max_n": 100})
        )
    )
    leinster = [r for r in records if r.kind is GroupKind.LEINSTER]
    quasi = [r for r in records if r.kind is GroupKind.QUASI_LEINSTER]
    almost = [r for r in records if r.kind is GroupKind.ALMOST_LEINSTER]
    only_hit = (
        len(leinster) == 1
        and leinster[0].params == (3,)
        and leinster[0].order == 12
        and leinster[0].D == 24
    )
    brute = oracle.group_divisor_sum(oracle.build_generalized_dicyclic([6], 3))
    report(
        "C5 dicyclic sweep 2..100",
        only_hit and not quasi and not almost and brute == 24,
    )


def test_criterion_6_dihedral_sweep():
    records = list(
        search.run_sweep(
            SweepConfig(
                family="dihedral",
                bounds={"min_n": 2, "max_n": 1000},
                classes=NEAR,
            )
        )
    )
    report("C6 dihedral sweep 2..1000", records == [])


def test_criterion_7_affine_classification():
    records = list(
        search.run_sweep(SweepConfig(family="affine", bounds={"max_q": 100}))
    )
    quasi = [r.params[0] for r in records if r.kind is GroupKind.QUASI_LEINSTER]
    almost = [r.params[0] for r in records if r.kind is GroupKind.ALMOST_LEINSTER]
    leinster = [r for r in records if r.kind is GroupKind.LEINSTER]
    labels_ok = all(
        "paper-label-differs" in r.notes
        for r in records
        if r.kind in (GroupKind.QUASI_LEINSTER, GroupKind.ALMOST_LEINSTER)
    )
    oracle_ok = all(
        families.affine_divisor_sum(q)
        == oracle.group_divisor_sum(oracle.build_affine_prime(q))
        for q in (2, 3, 5, 7, 11, 13, 17, 19)
    )
    report(
        "C7 affine classification q<=100",
        quasi == [7, 29] and almost == [2] and not leinster and labels_ok and oracle_ok,
    )


def test_criterion_8_verify_200_under_a_minute():
    start = time.perf_counter()
    results = verify.run_verify(200)
    elapsed = time.perf_counter() - start
    for result in results:
        print(
            f"  {'PASS' if result.passed else 'FAIL'} "
            f"{result.name} ({result.checked} checked) {result.detail}"
        )
    checked = [result.checked for result in results]
    report(
        "C8 verify --max-order 200",
        all(r.passed for r in results)
        and checked == [200, 743, 844, 8453, 289, 289, 23, 93, 267, 211, 4]
        and elapsed < 60.0,
    )


def test_criterion_9_property_suite():
    rng = random.Random(2024)
    for _ in range(10_000):
        n = rng.randrange(1, 10**6)
        # perfect, abundant or deficient: exactly one
        number_kind = families.classify_kind(numtheory.divisor_sum(n), n)
        assert (
            sum(
                [
                    number_kind is GroupKind.LEINSTER,
                    number_kind in (GroupKind.ABUNDANT, GroupKind.QUASI_LEINSTER),
                    number_kind in (GroupKind.DEFICIENT, GroupKind.ALMOST_LEINSTER),
                ]
            )
            == 1
        )
        total = rng.randrange(1, 4 * n)
        kind = families.classify_kind(total, n)
        assert (
            sum(
                [
                    total == 2 * n,
                    total > 2 * n,
                    total < 2 * n,
                ]
            )
            == 1
        )
        if kind is GroupKind.QUASI_LEINSTER:
            assert total == 2 * n + 1
        if kind is GroupKind.ALMOST_LEINSTER:
            assert total == 2 * n - 1

    done = 0
    while done < 1000:
        m = rng.randrange(2, 10**6)
        r = rng.randrange(1, m)
        if math.gcd(r, m) != 1:
            continue
        d = numtheory.mult_order(r, m)
        assert pow(r, d, m) == 1
        for p, _ in numtheory.factorize(d):
            assert pow(r, d // p, m) != 1
        done += 1
    report("C9 property suite", True)
