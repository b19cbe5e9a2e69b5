import collections
import dataclasses
import itertools
import math

import pytest

from leinster import cli, families, numtheory, oracle, verify
from leinster.search import FAMILY


def by_name(results):
    return {r.name: r for r in results}


def test_suite_passes_at_order_100():
    results = verify.run_verify(100)
    for result in results:
        assert result.passed, f"{result.name}: {result.detail}"
    checked = [result.checked for result in results]
    assert checked == [100, 365, 311, 8453, 102, 102, 23, 68, 165, 120, 4]


def test_order_42_run_covers_the_metacyclic_flagship():
    results = by_name(verify.run_verify(42))
    three_path = results["zm-three-path-agreement"]
    assert three_path.passed and three_path.checked > 0
    spots = results["known-instance-spot-checks"]
    assert spots.passed and spots.checked >= 4  # C6, Dic12, ZM(7,6,3), Aff(7)


def test_order_12_run_covers_the_leinster_dicyclic_group():
    results = by_name(verify.run_verify(12))
    spots = results["known-instance-spot-checks"]
    assert spots.passed and spots.checked >= 2  # C6 and Dic12


def test_corpus_contains_each_family():
    corpus = list(verify._corpus(60))
    families = {entry.family for entry in corpus}
    assert {
        "cyclic",
        "dihedral",
        "gen-dihedral",
        "dicyclic",
        "gen-dicyclic",
        "zm",
        "affine",
        "pq",
    } <= families


def corpus_params_by_loops(max_order):
    """The params of every registry family in the corpus, found by loops of
    their own rather than by the families' `up_to`."""
    cap = min(max_order, verify._ZM_PQ_CAP)
    zm = []
    for m in range(2, cap // 2 + 1):
        for n in range(2, cap // m + 1):
            if math.gcd(m, n) != 1:
                continue
            for r in range(2, m):
                if families.zm_validate(m, n, r) is not None:
                    zm.append((m, n, r))
    pq = []
    for q in range(3, cap + 1):
        if not numtheory.is_prime(q):
            continue
        for p in range(2, q):
            if p * q <= cap and numtheory.is_prime(p) and (q - 1) % p == 0:
                pq.append((p, q))
    affine = []
    p = 2
    while p * (p - 1) <= max_order:
        if numtheory.is_prime(p):
            affine.append((p,))
        p += 1
    dih_cap = min(verify._DIH_CAP, max_order // 2)
    gen_dihedral = [chain for chain in families.iter_abelian_types(dih_cap) if len(chain) >= 2]
    return {
        "cyclic": [(n,) for n in range(1, max_order + 1)],
        "dihedral": [(n,) for n in range(1, max_order // 2 + 1)],
        "dicyclic": [(n,) for n in range(2, max_order // 4 + 1)],
        "zm": zm,
        "pq": sorted(pq),
        "affine": affine,
        "gen-dihedral": gen_dihedral,
    }


# the run-lengths of entry.family over the corpus: with the params order of
# each family, they pin the whole sequence
CORPUS_RUNS = {
    100: [("cyclic", 100), ("dihedral", 50), ("gen-dihedral", 23), ("dicyclic", 24),
          ("gen-dicyclic", 44), ("zm", 102), ("affine", 4), ("pq", 19)],
    200: [("cyclic", 200), ("dihedral", 100), ("gen-dihedral", 23), ("dicyclic", 49),
          ("gen-dicyclic", 44), ("zm", 289), ("affine", 6), ("pq", 33)],
    512: [("cyclic", 512), ("dihedral", 256), ("gen-dihedral", 23), ("dicyclic", 127),
          ("gen-dicyclic", 44), ("zm", 289), ("affine", 9), ("pq", 33)],
}


@pytest.mark.parametrize("max_order", [1, 2, 5, 6, 24, 100, 200, 512])
def test_corpus_takes_each_family_from_its_enumerator(max_order):
    # streamed: the whole corpus at 512 would hold about 200 MB of tables
    corpus = [(e.family, e.params, e.group.order) for e in verify._corpus(max_order)]
    for family, want in corpus_params_by_loops(max_order).items():
        assert [params for name, params, _ in corpus if name == family] == want, family
    assert all(order <= max_order for _, _, order in corpus)
    for name, family in FAMILY.items():
        assert all(family.evaluate(params)[0] <= max_order for params in family.up_to(max_order)), name
    if max_order in CORPUS_RUNS:
        runs = [(name, len(list(run))) for name, run in itertools.groupby(e[0] for e in corpus)]
        assert runs == CORPUS_RUNS[max_order]


@pytest.mark.parametrize(
    "cap, value, shrunk",
    [("_ZM_PQ_CAP", 30, ("zm", "pq")), ("_DIH_CAP", 4, ("gen-dihedral",)), ("_DIC_CAP", 4, ("gen-dicyclic",))],
)
def test_a_patched_corpus_cap_shrinks_the_corpus(monkeypatch, cap, value, shrunk):
    def orders_by_family():
        out = collections.defaultdict(list)
        for entry in verify._corpus(100):
            out[entry.family].append(entry.group.order)
        return out

    before = orders_by_family()
    monkeypatch.setattr(verify, cap, value)
    after = orders_by_family()
    top = value if cap == "_ZM_PQ_CAP" else 2 * value  # Dih(A) and Dic(A, y) have order 2|A|
    for family in before:
        if family in shrunk:
            assert 0 < len(after[family]) < len(before[family]), family
            assert max(after[family]) <= top, family
        else:
            assert after[family] == before[family], family


def test_small_run_includes_key_instances():
    corpus = list(verify._corpus(42))
    labels = {entry.label for entry in corpus}
    assert "ZM(7,6,3)" in labels
    assert "Dic12" in labels
    assert "Aff(7)" in labels


def eager_verify(max_order):
    """run_verify over the whole corpus held at once: each invariant in turn
    over every entry (the product check over the whole list), counted up to
    its first failure."""
    corpus = list(verify._corpus(max_order))
    results = []
    for name, check, over_pairs in verify._INVARIANTS:
        if over_pairs:
            outcomes = check(corpus, max_order)
        else:
            outcomes = (outcome for entry in corpus for outcome in check(entry, max_order))
        checked, detail = 0, ""
        for outcome in outcomes:
            checked += 1
            if outcome is not None:
                detail = outcome
                break
        results.append(verify.InvariantResult(name, not detail, checked, detail))
    return results


@pytest.mark.parametrize("max_order", [1, 6, 60, 100])
def test_the_streamed_run_equals_the_whole_corpus_run(max_order):
    assert verify.run_verify(max_order) == eager_verify(max_order)


def test_a_failure_at_a_late_entry_keeps_its_count_and_the_rest_run(monkeypatch):
    labels = [entry.label for entry in verify._corpus(100)]
    late = labels[299]
    assert labels.count(late) == 1

    def wrong_delta(entry, max_order):
        yield f"{entry.label}: wrong" if entry.label == late else None

    rows = [
        (name, wrong_delta if name == "delta-exceeds-one" else check, over_pairs)
        for name, check, over_pairs in verify._INVARIANTS
    ]
    monkeypatch.setattr(verify, "_INVARIANTS", tuple(rows))
    results = verify.run_verify(100)
    assert results == eager_verify(100)
    failed = [r for r in results if not r.passed]
    assert failed == [verify.InvariantResult("delta-exceeds-one", False, 300, f"{late}: wrong")]
    assert [r.checked for r in results] == [100, 300, 311, 8453, 102, 102, 23, 68, 165, 120, 4]


def test_every_invariant_is_done_with_an_entry_before_the_next_is_built(monkeypatch):
    events = []
    corpus = verify._corpus

    def pulled(max_order):
        for entry in corpus(max_order):
            events.append(("built", entry.label))
            yield entry

    def watched(name, check):
        def run(entry, max_order):
            yield from check(entry, max_order)
            events.append((name, entry.label))

        return run

    rows = [
        (name, check if over_pairs else watched(name, check), over_pairs)
        for name, check, over_pairs in verify._INVARIANTS
    ]
    monkeypatch.setattr(verify, "_corpus", pulled)
    monkeypatch.setattr(verify, "_INVARIANTS", tuple(rows))
    assert all(result.passed for result in verify.run_verify(24))
    per_entry = [name for name, _, over_pairs in rows if not over_pairs]
    built = [label for what, label in events if what == "built"]
    assert len(built) > 50
    assert events == [
        event
        for label in built
        for event in [("built", label)] + [(name, label) for name in per_entry]
    ]


def coprime_pairs(entries, max_order):
    """The labels of the entry pairs direct-product-multiplicativity checks, in its order."""
    return [
        (left.label, right.label)
        for i, left in enumerate(entries)
        for right in entries[i + 1 :]
        if left.group.order > 1
        and right.group.order > 1
        and left.group.order * right.group.order <= max_order
        and math.gcd(left.group.order, right.group.order) == 1
    ]


@pytest.mark.parametrize("max_order", [100, 200])
def test_the_held_entries_give_every_product_pair(max_order):
    corpus = list(verify._corpus(max_order))
    held = [entry for entry in corpus if verify._pairable(entry.group.order, max_order)]
    pairs = coprime_pairs(held, max_order)
    assert pairs == coprime_pairs(corpus, max_order)
    # and no more is held: each held entry is a factor of some pair
    assert {label for pair in pairs for label in pair} == {entry.label for entry in held}


def test_each_product_table_pair_is_built_once(monkeypatch):
    corpus = list(verify._corpus(100))
    built = []
    build = oracle.build_direct_product

    def watched(g, h):
        built.append((g.digest(), h.digest()))
        return build(g, h)

    monkeypatch.setattr(oracle, "build_direct_product", watched)
    outcomes = list(verify._check_multiplicativity(corpus, 100))
    assert outcomes == [None] * 311
    # 51 of the 311 pairs repeat a pair of tables, as C5 x G(2,3) does C5 x ZM(3,2,2)
    assert len(built) == len(set(built)) == 311 - 51


def test_rejects_silly_and_oversized_orders():
    with pytest.raises(ValueError):
        verify.run_verify(0)
    with pytest.raises(oracle.OrderCapError):
        verify.run_verify(oracle.order_cap() + 1)


def _one_more(monkeypatch, name):
    # a formula that is off by one: verify must catch it and name the instance
    formula = getattr(families, name)
    monkeypatch.setattr(families, name, lambda *args: formula(*args) + 1)


def test_a_wrong_pq_formula_fails_only_family_formula_agreement(monkeypatch):
    _one_more(monkeypatch, "pq_divisor_sum")
    results = verify.run_verify(24)
    failed = [r for r in results if not r.passed]
    assert failed == [
        verify.InvariantResult(
            "family-formula-agreement", False, 26, "G(2,3): oracle D = 10 != formula 11"
        )
    ]
    assert len(results) - len(failed) == 10


@pytest.mark.parametrize(
    "family, detail",
    [("pq", "G(2,3): oracle D = 10 != swept formula 11"),
     ("dihedral", "D2: oracle D = 3 != swept formula 4"),
     ("gen-dihedral", "Dih(C2xC2): oracle D = 51 != swept formula 52")],
    ids=["pq", "dihedral", "gen-dihedral"],
)
def test_a_wrong_batch_formula_fails_only_family_formula_agreement(monkeypatch, family, detail):
    # `evaluate` is right, and `evaluate_batch`, which gives the D a sweep
    # prints, is one more
    record = FAMILY[family]

    def one_more(batch):
        orders, Ds, notes = record.evaluate_batch(batch)
        return orders, [D + 1 for D in Ds], notes

    monkeypatch.setitem(FAMILY, family, dataclasses.replace(record, evaluate_batch=one_more))
    results = verify.run_verify(24)
    failed = [r for r in results if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [("family-formula-agreement", detail)]
    assert len(results) - len(failed) == 10


@pytest.mark.parametrize(
    "family, invariant, detail",
    [("cyclic", "cyclic-group-divisor-sum", "C1: oracle D = 1 != swept formula 2"),
     ("zm", "zm-three-path-agreement", "ZM(3,2,2): oracle D = 10 != swept formula 11")],
    ids=["cyclic", "zm"],
)
def test_a_wrong_batch_formula_of_cyclic_or_zm_fails_only_its_own_invariant(
    monkeypatch, family, invariant, detail
):
    # cyclic and zm skip family-formula-agreement: the invariant that holds
    # their per-tuple formula to the oracle holds the D a sweep prints too
    record = FAMILY[family]

    def one_more(batch):
        orders, Ds, notes = record.evaluate_batch(batch)
        return orders, [D + 1 for D in Ds], notes

    monkeypatch.setitem(FAMILY, family, dataclasses.replace(record, evaluate_batch=one_more))
    results = verify.run_verify(60)
    failed = [r for r in results if not r.passed]
    assert failed == [verify.InvariantResult(invariant, False, 1, detail)]
    assert len(results) - len(failed) == 10


def test_a_wrong_zm_formula_fails_only_zm_three_path_agreement(monkeypatch):
    _one_more(monkeypatch, "zm_divisor_sum")
    results = verify.run_verify(24)
    failed = [r for r in results if not r.passed]
    assert failed == [
        verify.InvariantResult(
            "zm-three-path-agreement", False, 1, "ZM(3,2,2): 11 / 10 / 10 disagree"
        )
    ]
    assert len(results) - len(failed) == 10


def test_a_wrong_zm_formula_above_order_150_is_caught_at_its_first_instance(monkeypatch):
    # the detail and count pin where the corpus reaches its first zm group of
    # order > 150, and so the zm entries' order
    formula = families.zm_divisor_sum
    monkeypatch.setattr(families, "zm_divisor_sum", lambda t: formula(t) + (t.order > 150))
    results = verify.run_verify(200)
    failed = [r for r in results if not r.passed]
    assert failed == [
        verify.InvariantResult(
            "zm-three-path-agreement", False, 18, "ZM(3,52,2): 337 / 336 / 336 disagree"
        )
    ]
    assert [r.checked for r in results] == [200, 743, 844, 8453, 289, 18, 23, 93, 267, 211, 4]


def test_cli_verify_reports_the_failure_and_exits_3(monkeypatch, capsys):
    _one_more(monkeypatch, "pq_divisor_sum")
    assert cli.main(["verify", "--max-order", "24"]) == cli.EXIT_VERIFY == 3
    out = capsys.readouterr().out.splitlines()
    assert (
        "FAIL family-formula-agreement (26 checked): G(2,3): oracle D = 10 != formula 11"
        in out
    )
    assert out[-1].startswith("verify: 10/11 invariants passed in ")


def test_spot_checks_report_the_first_wrong_value(monkeypatch):
    brute = oracle.group_divisor_sum
    monkeypatch.setattr(oracle, "group_divisor_sum", lambda group: brute(group) + 1)
    spots = by_name(verify.run_verify(12))["known-instance-spot-checks"]
    assert spots == verify.InvariantResult(
        "known-instance-spot-checks", False, 1, "C6: D = 13 != 12"
    )


def test_a_wrong_quotient_divisor_sum_fails_quotient_monotonicity(monkeypatch, capsys):
    # Dih(C2 x C6) / <3> is the first quotient table of the corpus to order 24
    # that is no corpus group, so only quotient-monotonicity reads its D
    group = oracle.build_generalized_dihedral([2, 6])
    target = oracle._quotients(group, [1 | 1 << 3])[0].digest()
    brute = oracle.group_divisor_sum
    monkeypatch.setattr(
        oracle, "group_divisor_sum", lambda g: brute(g) + 100 * (g.digest() == target)
    )
    detail = "Dih(C2xC6) / N of order 2: 136/12 > 164/24"
    results = verify.run_verify(24)
    assert [r for r in results if not r.passed] == [
        verify.InvariantResult("quotient-monotonicity", False, 254, detail)
    ]
    assert cli.main(["verify", "--max-order", "24"]) == cli.EXIT_VERIFY == 3
    out = capsys.readouterr().out.splitlines()
    assert f"FAIL quotient-monotonicity (254 checked): {detail}" in out
    assert out[-1].startswith("verify: 10/11 invariants passed in ")


def test_quotient_monotonicity_reads_d_once_per_distinct_quotient_table(monkeypatch):
    corpus = list(verify._corpus(24))
    want = []
    for entry in corpus:
        want.append(entry.group.digest())
        tables = [q.digest() for q in oracle.normal_quotients(entry.group)]
        want += dict.fromkeys(tables)  # each distinct table, first seen first
    asked = []
    brute = oracle.group_divisor_sum

    def watched(group):
        asked.append(group.digest())
        return brute(group)

    monkeypatch.setattr(oracle, "group_divisor_sum", watched)
    assert all(
        outcome is None
        for entry in corpus
        for outcome in verify._check_quotient_monotonicity(entry, 24)
    )
    assert asked == want
    pairs = sum(len(oracle._normal_lattice(entry.group)) for entry in corpus)
    assert len(asked) < len(corpus) + pairs  # fewer reads than one per pair


def test_verify_help_states_the_fixed_corpus_caps(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"quotient-monotonicity checks groups of order at most {verify._QUOTIENT_CAP} only" in text
    assert f"Dih(A) entries have |A| <= {verify._DIH_CAP}" in text
    assert f"Dic(A, y) entries have |A| <= {verify._DIC_CAP}" in text
    assert f"zm and pq entries go to order {verify._ZM_PQ_CAP}" in text
