import pytest

from leinster import oracle, verify


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
    corpus = verify._build_corpus(60)
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


def test_small_run_includes_key_instances():
    corpus = verify._build_corpus(42)
    labels = {entry.label for entry in corpus}
    assert "ZM(7,6,3)" in labels
    assert "Dic12" in labels
    assert "Aff(7)" in labels


def test_rejects_silly_and_oversized_orders():
    with pytest.raises(ValueError):
        verify.run_verify(0)
    with pytest.raises(oracle.OrderCapError):
        verify.run_verify(oracle.order_cap() + 1)
