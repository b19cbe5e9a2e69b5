import dataclasses
import functools
import gc
import io
import json
import math
import os
import pickle
import random
import re
import tempfile
import tracemalloc
from collections import Counter
from contextlib import closing, redirect_stderr, redirect_stdout
from itertools import compress, cycle
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leinster import cli, families, numtheory, oracle, search
from leinster.families import GroupKind
from leinster.search import SearchRecord, SweepConfig
from cache_reference import prefix_walk
from class_reference import reference_kind
from zm_reference import enumerate_zm_scan, zm_canonical, zm_up_to_scan

QUASI = frozenset({GroupKind.QUASI_LEINSTER})


def sweep(**kwargs):
    return list(search.run_sweep(SweepConfig(**kwargs)))


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(family="nope", bounds={"max_n": 3})
    with pytest.raises(ValueError):
        SweepConfig(family="cyclic", bounds={"max_n": 0})
    with pytest.raises(ValueError):
        SweepConfig(family="dihedral", bounds={"max_n": 3}, paper_mode=True)


def test_budget_gate():
    with pytest.raises(search.BudgetError):
        sweep(family="zm", bounds={"max_m": 5000, "max_n": 5000}, budget=10**6)


def test_missing_bound_is_domain_error():
    with pytest.raises(ValueError):
        sweep(family="cyclic", bounds={})


# ---------------------------------------------------------------------------
# sweeps


def test_cyclic_sweep_classes_rederivable():
    records = sweep(family="cyclic", bounds={"max_n": 50})
    assert len(records) == 49  # n = 1 is an edge, excluded by default
    for record in records:
        assert record.kind is reference_kind(record.D, record.order)
    leinsters = [r.params for r in records if r.kind is GroupKind.LEINSTER]
    assert leinsters == [(6,), (28,)]


def test_edge_records_excluded_unless_requested():
    records = sweep(family="cyclic", bounds={"max_n": 3}, include_edge=True)
    assert records[0].params == (1,)
    assert "edge" in records[0].notes
    assert all("edge" not in r.notes for r in sweep(family="cyclic", bounds={"max_n": 3}))


def test_zm_general_quasi_sweep():
    records = sweep(family="zm", bounds={"max_m": 20, "max_n": 10}, classes=QUASI)
    assert [r.params for r in records] == [
        (7, 6, 3),
        (7, 6, 5),
        (13, 6, 4),
        (13, 6, 10),
        (19, 6, 8),
        (19, 6, 12),
    ]
    for record in records:
        assert record.D == 2 * record.order + 1


def test_zm_paper_mode_sweep():
    records = sweep(
        family="zm",
        bounds={"max_m": 30},
        paper_mode=True,
        fixed_r=3,
        classes=QUASI,
    )
    assert [r.params for r in records] == [(7, 6, 3), (29, 28, 3)]


def test_zm_dedupe_keeps_canonical_triples():
    records = sweep(
        family="zm",
        bounds={"max_m": 20, "max_n": 10},
        classes=QUASI,
        dedupe=True,
    )
    assert [r.params for r in records] == [(7, 6, 3), (13, 6, 4), (19, 6, 8)]


def test_dicyclic_sweep():
    records = sweep(family="dicyclic", bounds={"min_n": 2, "max_n": 100})
    hits = [r for r in records if r.kind is GroupKind.LEINSTER]
    assert [(r.params, r.order, r.D) for r in hits] == [((3,), 12, 24)]


def test_gen_dihedral_sweep():
    records = sweep(family="gen-dihedral", bounds={"max_a": 8})
    params = [r.params for r in records]
    assert (2, 2) in params and (8,) in params and (2, 2, 2) in params
    for record in records:
        assert record.order == 2 * math.prod(record.params)


def test_gen_dihedral_sweep_prints_what_classify_prints(capsys):
    # the sweep's batch path (one factorization window per chunk) against
    # the per-tuple path of `classify`, line by line
    assert cli.main(["search", "gen-dihedral", "--max-a", "3000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6492
    for line in lines:
        params = json.loads(line)["params"]
        assert line == search.run_classify("gen-dihedral", params).to_json(), line


def test_gen_dihedral_batch_of_sparse_chains_equals_the_per_tuple_path():
    # a warm cache's gaps: ascending chains, far apart, and a batch of one
    family = search.FAMILY["gen-dihedral"]
    chains = list(families.iter_abelian_types(2 * search._CHUNK))[1:]
    rng = random.Random(7)
    for k in (1, 2, 50, 500):
        batch = sorted(rng.sample(range(len(chains)), k))
        batch = [chains[i] for i in batch]
        assert list(zip(*family.evaluate_batch(batch))) == list(map(family.evaluate, batch))
    for chain in [(2,), (2, 2), (4, 8), (2, 2, 2, 2, 2, 4), (6, 6, 36), (3000,)]:
        assert family.evaluate_batch([chain])[1] == [family.evaluate(chain)[1]]


@pytest.mark.parametrize("max_a", [127, search._CHUNK + 5])
def test_the_gen_dihedral_budget_counts_the_chains_enumerated(max_a):
    cfg = SweepConfig(family="gen-dihedral", bounds={"max_a": max_a})
    chains = len(list(search._enumerate_gen_dihedral(cfg)))
    assert chains == len(list(families.iter_abelian_types(max_a))) - 1
    assert list(search._enumerate_gen_dihedral(dataclasses.replace(cfg, budget=chains)))
    with pytest.raises(search.BudgetError, match=f"more than {chains - 1} chains"):
        search._enumerate_gen_dihedral(dataclasses.replace(cfg, budget=chains - 1))


def test_affine_sweep_includes_prime_powers():
    records = sweep(family="affine", bounds={"max_q": 16})
    params = [r.params[0] for r in records]
    assert params == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    four = next(r for r in records if r.params == (4,))
    assert "formula-only (no oracle)" in four.notes


def test_pq_sweep():
    records = sweep(family="pq", bounds={"max_q": 13})
    assert [r.params for r in records] == [
        (2, 3),
        (2, 5),
        (2, 7),
        (2, 11),
        (2, 13),
        (3, 7),
        (3, 13),
        (5, 11),
    ]
    assert all(r.kind is not GroupKind.LEINSTER for r in records)


# ---------------------------------------------------------------------------
# cache and workers


def test_cache_roundtrip(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cfg = dict(family="zm", bounds={"max_m": 12, "max_n": 8}, cache_path=cache)
    cold = sweep(**cfg)
    warm = sweep(**cfg)
    assert cold == warm
    assert cache.exists()
    # a second resume recomputes nothing: truncating is detectable because a
    # fresh record would be appended
    size_before = cache.stat().st_size
    sweep(**cfg)
    assert cache.stat().st_size == size_before


def test_cache_corrupt_lines_skipped(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text('not json at all\n{"half": 1\n')
    cfg = dict(family="cyclic", bounds={"max_n": 10}, cache_path=cache)
    records = sweep(**cfg)
    err = capsys.readouterr().err
    assert "corrupt cache line" in err
    assert records == sweep(family="cyclic", bounds={"max_n": 10})


CORRUPT_CYCLIC_6 = [
    '{"family": "cyclic", "params": [6.9], "order": 6, "D": 99, "class": "leinster", "notes": []}',
    '{"family": "cyclic", "params": [6], "order": 6, "D": 12.5, "class": "leinster", "notes": []}',
    '{"family": "cyclic", "params": [6], "order": "6", "D": 99, "class": "leinster", "notes": []}',
    '{"family": "cyclic", "params": [6], "order": 6, "D": 99, "class": "leinster", "notes": "ab"}',
    '{"family": "cyclic", "params": [true], "order": 1, "D": 9, "class": "leinster", "notes": []}',
]


def test_mistyped_cache_lines_are_skipped_and_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("\n".join(CORRUPT_CYCLIC_6) + "\n")
    records = sweep(family="cyclic", bounds={"max_n": 10}, cache_path=cache)
    assert capsys.readouterr().err.count("skipping corrupt cache line") == len(CORRUPT_CYCLIC_6)
    assert records == sweep(family="cyclic", bounds={"max_n": 10})
    assert next(r for r in records if r.params == (6,)).D == 12


# cache lines to skip: not in the form a sweep writes, or in it with a
# class that D and order do not give
CORRUPT_CACHE_LINES = {
    # deeper than a recursive JSON parser goes
    "nested-too-deep": "[" * 100_000,
    # well typed, but D = 12 = 2 * 6 makes C6 Leinster
    "class-disagrees-with-D": (
        '{"family": "cyclic", "params": [6], "order": 6, "D": 12, '
        '"class": "abundant", "notes": []}'
    ),
    # D = 0 has no class at all
    "D-below-one": (
        '{"family": "cyclic", "params": [2], "order": 2, "D": 0, '
        '"class": "deficient", "notes": []}'
    ),
    # nor has order 0, although D - 2 * order = 1 reads as quasi-Leinster
    "order-below-one": (
        '{"family": "cyclic", "params": [2], "order": 0, "D": 1, '
        '"class": "quasi-leinster", "notes": []}'
    ),
}


@pytest.mark.parametrize("line", list(CORRUPT_CACHE_LINES.values()), ids=list(CORRUPT_CACHE_LINES))
def test_corrupt_cache_line_is_skipped_and_recomputed(tmp_path, capsys, line):
    argv = ["search", "cyclic", "--max-n", "10", "--include-edge"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    cache = tmp_path / "cache.jsonl"
    cache.write_text(line + "\n")
    assert cli.main(argv + ["--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err.count("skipping corrupt cache line 1") == 1
    assert cache.read_text().splitlines()[1:] == expected.splitlines()


def test_a_cached_d_of_more_than_4300_digits_is_read_back_exactly(tmp_path, capsys):
    # cli.main lifts the limit on int-to-string digits (4,300 from Python
    # 3.10.7 on), so this line is well formed and its class agrees with its D
    # and order: an affine sweep decodes its cache, takes the line, as the
    # first of the prefix, and prints it as it was read
    line = (
        '{"family": "affine", "params": [2], "order": 2, "D": 1' + "0" * 5000 + ', '
        '"class": "abundant", "notes": []}'
    )
    cache = tmp_path / "cache.jsonl"
    cache.write_text(line + "\n")
    argv = ["search", "affine", "--max-q", "10", "--cache", str(cache)]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[0] == line
    assert json.loads(line)["D"] == 10**5000


def test_warm_sweep_neither_parses_nor_evaluates(tmp_path, monkeypatch, capsys):
    # affine decodes its cache: a warm sweep takes every row from the file
    argv = ["search", "affine", "--max-q", "50000", "--cache", str(tmp_path / "c.jsonl")]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    assert len(cold.splitlines()) > search._CHUNK
    size = (tmp_path / "c.jsonl").stat().st_size

    def boom(*args, **kwargs):
        raise AssertionError("a warm sweep must not get here")

    monkeypatch.setattr(json, "loads", boom)
    monkeypatch.setitem(
        search.FAMILY, "affine",
        dataclasses.replace(search.FAMILY["affine"], evaluate=boom, evaluate_batch=boom),
    )
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err == ""
    assert (tmp_path / "c.jsonl").stat().st_size == size


def test_unwritable_cache_warns_once_and_the_sweep_goes_on(tmp_path, capsys):
    cache = tmp_path / "missing-directory" / "cache.jsonl"
    bounds = {"max_n": 3 * search._CHUNK}
    records = sweep(family="cyclic", bounds=bounds, cache_path=cache)
    assert capsys.readouterr().err.count("cache write failed") == 1
    assert records == sweep(family="cyclic", bounds=bounds)


def test_unreadable_cache_warns_once_and_the_sweep_goes_on(tmp_path, capsys):
    assert cli.main(["search", "cyclic", "--max-n", "5"]) == 0
    expected = capsys.readouterr().out
    # a directory: bytes that are not UTF-8 are a corrupt line, not a failed
    # read (test_cache_bytes_not_utf8_fail_the_read_at_their_line)
    argv = ["search", "cyclic", "--max-n", "5", "--cache", str(tmp_path)]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err.count("cache read failed") == 1
    assert "cache write failed" not in captured.err


def test_interrupted_sweep_resumes_from_its_cache(tmp_path, monkeypatch, capsys):
    # affine decodes its cache, so a rerun evaluates only the tuples it lacks
    argv = ["search", "affine", "--max-q", "100000"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    params = [tuple(json.loads(line)["params"]) for line in expected.splitlines()]
    cache = tmp_path / "cache.jsonl"
    argv += ["--cache", str(cache)]
    family = search.FAMILY["affine"]
    calls = []

    def counting(params, stop_after=None):
        # the interrupt comes once more than stop_after params are evaluated
        calls.extend(params)
        if stop_after is not None and len(calls) > stop_after:
            raise KeyboardInterrupt

    def evaluating(stop_after=None):
        # a sweep's batch is evaluated by `evaluate_batch`, a tuple on its own
        # by `evaluate`: both count
        def one(params):
            counting([params], stop_after)
            return family.evaluate(params)

        def batch(params):
            counting(params, stop_after)
            return family.evaluate_batch(params)

        replaced = dataclasses.replace(family, evaluate=one, evaluate_batch=batch)
        monkeypatch.setitem(search.FAMILY, "affine", replaced)

    evaluating(stop_after=5_000)
    assert cli.main(argv) == cli.EXIT_INTERRUPTED
    kept = 5_000 // search._CHUNK * search._CHUNK  # every finished chunk
    # the records of the chunks printed before the interrupt
    assert capsys.readouterr().out == "".join(expected.splitlines(keepends=True)[:kept])
    assert len(cache.read_text().splitlines()) == kept > 0

    calls.clear()
    evaluating()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    assert calls == params[kept:]
    assert len(cache.read_text().splitlines()) == len(params) > 2 * search._CHUNK


def test_torn_cache_tail_gets_its_own_line(tmp_path, capsys):
    argv = ["search", "cyclic", "--max-n", "3", "--include-edge"]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    cache = tmp_path / "cache.jsonl"
    torn = '{"family": "cyclic", "params": [1'  # a write cut short, no newline
    cache.write_text(torn)
    argv += ["--cache", str(cache)]
    sizes = []
    for _ in range(3):
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cold
        assert captured.err.count("skipping corrupt cache line 1") == 1
        sizes.append(cache.stat().st_size)
    assert cache.read_text().splitlines() == [torn, *cold.splitlines()]
    assert sizes[0] == sizes[1] == sizes[2]  # the reruns append nothing


def test_other_families_cache_lines_are_skipped_without_a_decode(tmp_path, monkeypatch, capsys):
    lines = {}
    for family in ("cyclic", "dihedral"):
        assert cli.main(["search", family, "--max-n", "40", "--include-edge"]) == 0
        lines[family] = capsys.readouterr().out.splitlines()
    mixed = [line for pair in zip(lines["cyclic"], lines["dihedral"]) for line in pair]
    mixed.insert(20, "not json at all")
    cache = tmp_path / "cache.jsonl"
    cache.write_text("\n".join(mixed) + "\n")
    argv = ["search", "dihedral", "--max-n", "40"]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out

    # the bytes differ at every other line, so each dihedral line is judged
    # on its own, decoded alone; no cyclic line is decoded
    decode, decoded = search._decode_canonical, []
    monkeypatch.setattr(
        search, "_decode_canonical", lambda *args: decoded.append(args[1]) or decode(*args)
    )
    assert cli.main(argv + ["--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err == "warning: skipping corrupt cache line 21: not a line a sweep writes\n"
    assert decoded == [line for line in mixed if not line.startswith('{"family": "cyclic", ')]
    assert cache.read_text() == "\n".join(mixed) + "\n"


def test_cache_reader_reads_only_the_bytes_there_when_it_opened(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(C6_LINE + "\n")
    c7_line = search.run_classify("cyclic", [7]).to_json()
    # the walk decodes, then compares bytes; (7,) is appended by this sweep,
    # so not read either way
    for lines in (None, [C6_LINE, c7_line]):
        path.write_text(C6_LINE + "\n")
        with closing(search._Cache(path, "cyclic")) as cache:
            cache.append([c7_line])
            taken, rows = cache.walk([(6,), (7,)], lines)
            assert taken == 1
            if lines is None:
                assert rows.columns() == ([(6,)], [6], [12], [GroupKind.LEINSTER], [()], [C6_LINE])
            taken, rows = cache.walk([(7,)], lines)
            assert taken == 0 and rows.params == []
        assert path.read_text().splitlines()[1:] == [c7_line]


def affine_cache(tmp_path, max_q):
    """The cold cache of `search affine --max-q max_q`, as its file and its lines."""
    cache = tmp_path / "affine.jsonl"
    sweep(family="affine", bounds={"max_q": max_q}, cache_path=cache)
    return cache, cache.read_text().splitlines()


def edited(line):
    """An affine cache line with D = 10**6, well formed and self-consistent, so
    taken as written by a sweep that decodes it."""
    (record,) = search._decode_canonical("affine", line, [line]).records()
    D = 10**6
    return dataclasses.replace(record, D=D, kind=families.classify_kind(D, record.order)).to_json()


def test_first_valid_cache_line_for_params_wins(tmp_path):
    # the edited line holds the next params the sweep asks for, so it is
    # taken; the line after it, for the same params, then ends the prefix
    cache, lines = affine_cache(tmp_path, 30)
    first = edited(lines[3])  # q = 5
    cache.write_text("\n".join([*lines[:3], first, *lines[3:]]) + "\n")
    written = cache.read_bytes()
    warm = sweep(family="affine", bounds={"max_q": 30}, cache_path=cache)
    assert [r.to_json() for r in warm] == [*lines[:3], first, *lines[4:]]
    assert cache.read_bytes() == written  # nothing appended past the prefix


def test_first_valid_cache_line_wins_over_a_later_chunk_read_in_order(tmp_path):
    # the first chunk is taken from the file in one slice; the second takes
    # its rows up to the edited line, which wins, and the line after it,
    # for the same params, ends the prefix: the rest is evaluated
    cache, lines = affine_cache(tmp_path, 50_000)
    at = search._CHUNK + 5
    first = edited(lines[at])
    cache.write_text("\n".join([*lines[:at], first, *lines[at:]]) + "\n")
    written = cache.read_bytes()
    warm = sweep(family="affine", bounds={"max_q": 50_000}, cache_path=cache)
    assert [r.to_json() for r in warm] == [*lines[:at], first, *lines[at + 1 :]]
    assert cache.read_bytes() == written


def counting_enumerator(monkeypatch, family):
    """Install a copy of `family` whose enumeration records every params pulled."""
    pulled = []
    enumerate_ = search.FAMILY[family].enumerate

    def counting(cfg):
        for params in enumerate_(cfg):
            pulled.append(params)
            yield params

    monkeypatch.setitem(
        search.FAMILY, family, dataclasses.replace(search.FAMILY[family], enumerate=counting)
    )
    return pulled


def test_sweep_pulls_one_chunk_before_its_first_record(monkeypatch):
    pulled = counting_enumerator(monkeypatch, "cyclic")
    bounds = {"max_n": 4 * search._CHUNK}
    records = search.run_sweep(SweepConfig(family="cyclic", bounds=bounds))
    assert next(records).params == (2,)
    assert len(pulled) == search._CHUNK
    records.close()


def test_cold_warm_and_resumed_caches_agree_over_several_chunks(tmp_path):
    bounds = {"max_n": 3 * search._CHUNK + 100}
    cache = tmp_path / "cache.jsonl"
    cold = sweep(family="cyclic", bounds=bounds, cache_path=cache)
    written = cache.read_bytes()
    warm = sweep(family="cyclic", bounds=bounds, cache_path=cache)
    assert cache.read_bytes() == written  # nothing appended
    # resumed from the first chunk and a bit
    resumed = tmp_path / "resumed.jsonl"
    partial = sweep(family="cyclic", bounds={"max_n": search._CHUNK + 7}, cache_path=resumed)
    assert sweep(family="cyclic", bounds=bounds, cache_path=resumed) == cold
    assert resumed.read_bytes() == written
    assert cold == warm == sweep(family="cyclic", bounds=bounds)
    assert partial == cold[: search._CHUNK + 6]
    assert written.decode().splitlines()[1:] == [record.to_json() for record in cold]


def test_out_of_order_caches_give_the_cold_output_and_append_nothing(tmp_path, capsys):
    argv = ["search", "dihedral", "--max-n", str(2 * search._CHUNK + 10)]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out

    reversed_cache = tmp_path / "reversed.jsonl"
    assert cli.main(argv + ["--cache", str(reversed_cache)]) == 0
    capsys.readouterr()
    lines = reversed_cache.read_text().splitlines(keepends=True)
    reversed_cache.write_text("".join(reversed(lines)))

    # written from min_n = _CHUNK up, then extended down to min_n = 1
    extended = tmp_path / "extended.jsonl"
    for min_n in (search._CHUNK, 1):
        assert cli.main(argv + ["--min-n", str(min_n), "--cache", str(extended)]) == 0
    assert capsys.readouterr().out.endswith(cold)

    for cache in (reversed_cache, extended):
        size = cache.stat().st_size
        assert cli.main(argv + ["--cache", str(cache)]) == 0
        captured = capsys.readouterr()
        assert captured.out == cold
        assert captured.err == ""
        assert cache.stat().st_size == size


# per family: bounds of more than one chunk, and narrower bounds whose
# tuples come first among theirs
RESUMED_SWEEPS = {
    "cyclic": ({"max_n": 2 * search._CHUNK + 100}, {"max_n": search._CHUNK + 50}),
    "zm": ({"max_m": 300, "max_n": 20}, {"max_m": 150, "max_n": 20}),
    "affine": ({"max_q": 50_000}, {"max_q": 30_000}),
    "dihedral": ({"max_n": 2 * search._CHUNK + 100}, {"max_n": search._CHUNK + 50}),
    "gen-dihedral": ({"max_a": 2000}, {"max_a": 1000}),
    "dicyclic": (
        {"min_n": 2, "max_n": 2 * search._CHUNK + 100}, {"min_n": 2, "max_n": search._CHUNK + 50}
    ),
    "pq": ({"max_q": 30_000}, {"max_q": 30_000, "max_p": 5}),
}


# small sweeps of every family, and of zm with each option that changes its
# enumeration
COLD_SWEEPS = [
    dict(family="cyclic", bounds={"max_n": 300}),
    dict(family="dihedral", bounds={"max_n": 300}),
    dict(family="dicyclic", bounds={"min_n": 2, "max_n": 300}),
    dict(family="affine", bounds={"max_q": 2000}),
    dict(family="pq", bounds={"max_q": 500}),
    dict(family="gen-dihedral", bounds={"max_a": 64}),
    dict(family="zm", bounds={"max_m": 40, "max_n": 12}),
    dict(family="zm", bounds={"max_m": 40, "max_n": 12}, dedupe=True),
    dict(family="zm", bounds={"max_m": 40, "max_n": 12}, fixed_r=2),
    dict(family="zm", bounds={"max_m": 200}, paper_mode=True),
]


@pytest.mark.parametrize(
    "cfg",
    COLD_SWEEPS,
    ids=["cyclic", "dihedral", "dicyclic", "affine", "pq", "gen-dihedral",
         "zm", "zm-dedupe", "zm-r", "zm-paper-mode"],
)
def test_no_family_writes_a_cache_line_its_reader_rejects(cfg, tmp_path):
    cache = tmp_path / "cache.jsonl"
    chunks = list(search.sweep_chunks(SweepConfig(**cfg, include_edge=True, cache_path=cache)))
    text = cache.read_text()
    lines = text.splitlines()
    assert len(lines) > 10
    assert all(search._CANONICAL_LINE.fullmatch(line) for line in lines)
    decoded = search._decode_canonical(cfg["family"], text, lines)
    columns = zip(*(chunk.columns() for chunk in chunks))
    assert [list(column) for column in decoded.columns()] == [
        [row for part in column for row in part] for column in columns
    ]


@pytest.mark.parametrize("family", search.FAMILIES)
def test_every_cache_a_sweep_resumes_gives_the_uncached_output_and_the_cold_bytes(
    family, tmp_path, capsys
):
    bounds, narrower = RESUMED_SWEEPS[family]
    argv = ["search", family, *_bound_args(bounds)]
    assert cli.main(argv) == 0
    uncached = capsys.readouterr().out

    def run(cache):
        """The sweep's stderr with `cache`; its stdout must be the uncached one."""
        assert cli.main(argv + ["--cache", str(cache)]) == 0
        captured = capsys.readouterr()
        assert captured.out == uncached
        return captured.err

    cold = tmp_path / "cold.jsonl"
    assert run(cold) == ""
    written = cold.read_bytes()
    lines = written.decode().splitlines(keepends=True)
    assert len(lines) > search._CHUNK
    assert run(cold) == ""  # warm
    assert cold.read_bytes() == written

    resumed = tmp_path / "resumed.jsonl"
    cut = len(lines) // 2 + 1
    assert cut % search._CHUNK
    resumed.write_text("".join(lines[:cut]))
    assert run(resumed) == ""
    assert resumed.read_bytes() == written
    # a write cut short: the torn line is skipped, and keeps its own line
    torn = lines[cut][: len(lines[cut]) // 2]
    resumed.write_text("".join(lines[:cut]) + torn)
    err = run(resumed)
    assert err.startswith(f"warning: skipping corrupt cache line {cut + 1}: ")
    assert err.count("\n") == 1
    assert resumed.read_text() == "".join([*lines[:cut], torn, "\n", *lines[cut:]])

    extended = tmp_path / "extended.jsonl"
    assert cli.main(["search", family, *_bound_args(narrower), "--cache", str(extended)]) == 0
    capsys.readouterr()
    assert written.startswith(extended.read_bytes())
    assert len(extended.read_text().splitlines()) % search._CHUNK
    assert run(extended) == ""
    assert extended.read_bytes() == written


def test_a_recompute_family_prints_the_recomputed_d_of_an_edited_line(tmp_path, capsys):
    # cyclic evaluates each chunk and checks it against the cache: the edited
    # line is well formed and self-consistent and holds the params the sweep
    # asks for, so it passes as a checkpoint, and C6 is printed as computed
    assert search.FAMILY["cyclic"].recompute and not search.FAMILY["affine"].recompute
    argv = ["search", "cyclic", "--max-n", "8", "--include-edge"]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    assert C6_LINE in cold
    cache = tmp_path / "cache.jsonl"
    edited_cache = cold.replace('"D": 12, "class": "leinster"', '"D": 13, "class": "quasi-leinster"')
    cache.write_text(edited_cache)
    for extra, expected in (([], cold), (["--class", "quasi"], "")):
        assert cli.main(argv + extra + ["--cache", str(cache)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, "")
    assert cache.read_text() == edited_cache


def test_an_edited_line_of_a_recompute_family_is_judged_alone(tmp_path, monkeypatch, capsys):
    # the chunk's bytes differ at C6's line: that line alone is decoded and
    # taken, and the rest of the file is compared as bytes again, in this
    # chunk and every later one
    argv = ["search", "cyclic", "--max-n", "50000", "--include-edge"]
    cache = tmp_path / "cache.jsonl"
    assert cli.main(argv + ["--cache", str(cache)]) == 0
    cold = capsys.readouterr().out
    edited_line = C6_LINE.replace('12, "class": "leinster"', '13, "class": "quasi-leinster"')
    edited_cache = cold.replace(C6_LINE, edited_line)
    assert edited_cache != cold
    cache.write_text(edited_cache)
    decode, decoded = search._decode_canonical, []
    monkeypatch.setattr(
        search, "_decode_canonical", lambda *args: decoded.append(args) or decode(*args)
    )
    assert cli.main(argv + ["--cache", str(cache)]) == 0
    assert capsys.readouterr() == (cold, "")
    assert decoded == [("cyclic", edited_line, [edited_line])]
    assert cache.read_text() == edited_cache


def test_a_corrupt_line_early_in_a_warm_cache_holds_about_one_chunk(tmp_path, capsys):
    cfg = SweepConfig(family="cyclic", bounds={"max_n": 50_000}, cache_path=tmp_path / "c.jsonl")
    for _ in search.sweep_chunks(cfg):
        pass
    lines = cfg.cache_path.read_text().splitlines(keepends=True)
    lines[9] = lines[9].replace('"class": "deficient"', '"class": "abundant"')  # n = 10
    cfg.cache_path.write_text("".join(lines))
    tracemalloc.start()
    try:
        count = sum(1 for _ in search.run_sweep(cfg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 49_999
    assert capsys.readouterr().err == (
        "warning: skipping corrupt cache line 10: class 'abundant' disagrees with "
        "D = 18 and order 10\n"
    )
    # the line for n = 11 ends the prefix, and the reader drops what it
    # holds: a reader that waited for n = 10 would hold 49,990 records
    assert peak < 8 * 2**20
    assert cfg.cache_path.read_text() == "".join(lines)


def test_cold_cached_sweep_holds_only_the_chunk_it_yields(tmp_path):
    bounds = {"max_n": 4 * search._CHUNK}
    records = search.run_sweep(
        SweepConfig(family="cyclic", bounds=bounds, cache_path=tmp_path / "c.jsonl")
    )
    for record in records:
        if record.params == (3 * search._CHUNK + 1,):  # the last chunk's first
            break
    live = [o for o in gc.get_objects() if type(o) is SearchRecord and o.family == "cyclic"]
    records.close()
    # the records of the earlier chunks are gone (a few others, such as C6,
    # live on in this module)
    assert sum(1 for o in live if o.params < record.params) < search._CHUNK // 10
    assert sum(1 for o in live if o.params >= record.params) == search._CHUNK


def test_warm_sweep_holds_about_one_chunk(tmp_path):
    cfg = SweepConfig(family="cyclic", bounds={"max_n": 50_000}, cache_path=tmp_path / "c.jsonl")
    for _ in search.run_sweep(cfg):
        pass
    assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 50_000
    tracemalloc.start()
    try:
        count = sum(1 for _ in search.run_sweep(cfg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 49_999
    # about 3.3 MiB: one chunk of records; holding the whole cache as
    # records peaked at 24.9 MiB
    assert peak < 8 * 2**20


def test_sweep_narrower_than_its_cache_drops_the_records_it_passes(tmp_path, monkeypatch, capsys):
    argv = ["search", "zm", "--max-m", "60", "--max-n", "12"]
    cache = tmp_path / "zm.jsonl"
    assert cli.main(argv + ["--cache", str(cache)]) == 0
    assert len(cache.read_text().splitlines()) == 434
    written = cache.read_bytes()
    lines = written.decode().splitlines()
    capsys.readouterr()
    assert cli.main(argv + ["--r", "2"]) == 0
    cold = capsys.readouterr().out
    asked = sweep(family="zm", bounds={"max_m": 60, "max_n": 12}, fixed_r=2, include_edge=True)
    held = [tuple(json.loads(line)["params"]) for line in lines]
    prefix = len(os.path.commonprefix([held, [r.params for r in asked]]))
    assert len(asked) < len(lines) and prefix < len(asked)

    decode, decoded = search._decode_canonical, []
    monkeypatch.setattr(
        search, "_decode_canonical", lambda *args: decoded.append(args[2]) or decode(*args)
    )
    assert cli.main(argv + ["--r", "2", "--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (cold, "")
    assert len(cold.splitlines()) == 33
    # the file's first 34 lines do not decode as the chunk's params, so the
    # reader judges lines alone where fewer do not: the first row of r != 2
    # ends the prefix, and no line past the chunk's is read; nothing is
    # appended
    assert decoded[0] == lines[: len(asked)]
    assert all(set(call) <= set(lines[: len(asked)]) for call in decoded)
    assert decoded[-1] == [lines[prefix]]
    assert cache.read_bytes() == written


def test_gen_dihedral_cache_in_tuple_order_is_read_whole(tmp_path, monkeypatch):
    # chains come by group order, not as ascending tuples: a cache sorted
    # as tuples gives the same records, from its prefix in group order and
    # then by evaluation, and grows by nothing
    cache = tmp_path / "g.jsonl"
    bounds = {"max_a": 40}
    cold = sweep(family="gen-dihedral", bounds=bounds, cache_path=cache)
    lines = cache.read_text().splitlines()
    by_tuple = sorted(lines, key=lambda line: json.loads(line)["params"])
    assert by_tuple != lines
    cache.write_text("\n".join(by_tuple) + "\n")
    written = cache.read_bytes()
    prefix = next(i for i, (a, b) in enumerate(zip(lines, by_tuple)) if a != b)
    assert prefix > 0
    family, per_tuple = search.FAMILY["gen-dihedral"], []
    evaluate = lambda batch: per_tuple.extend(batch) or family.evaluate_batch(batch)  # noqa: E731
    monkeypatch.setitem(
        search.FAMILY, "gen-dihedral", dataclasses.replace(family, evaluate_batch=evaluate)
    )
    assert sweep(family="gen-dihedral", bounds=bounds, cache_path=cache) == cold
    assert per_tuple == [r.params for r in cold[prefix:]]
    assert cache.read_bytes() == written


NOTES = [search.NOTE_EDGE, search.NOTE_LABEL_DIFFERS, search.NOTE_FORMULA_ONLY]
huge_ints = st.integers(min_value=-(2**80), max_value=2**80)


@given(
    family=st.sampled_from(search.FAMILIES) | st.text(),
    params=st.lists(huge_ints, max_size=4),
    order=huge_ints,
    D=huge_ints,
    kind=st.sampled_from(list(GroupKind)),
    notes=st.lists(st.sampled_from(NOTES) | st.text(max_size=8), max_size=4),
)
def test_to_json_equals_json_dumps(family, params, order, D, kind, notes):
    record = SearchRecord(family, tuple(params), order, D, kind, tuple(notes))
    line = json.dumps(
        {
            "family": family,
            "params": params,
            "order": order,
            "D": D,
            "class": kind.value,
            "notes": notes,
        }
    )
    assert record.to_json() == line
    assert record.to_json() == record.to_json()  # encoded again, alike, on each call


@given(
    family=st.sampled_from(search.FAMILIES) | st.text(),
    rows=st.lists(
        st.tuples(
            st.lists(huge_ints, max_size=3) | st.lists(huge_ints, min_size=1, max_size=1),
            huge_ints,
            huge_ints,
            st.sampled_from(list(GroupKind)),
            st.lists(st.sampled_from(NOTES) | st.text(max_size=8), max_size=3) | st.just([]),
        ),
        max_size=6,
    ),
)
def test_a_chunks_lines_equal_json_dumps(family, rows):
    columns = [list(column) for column in zip(*rows)] or [[], [], [], [], []]
    params, orders, Ds, kinds, notes = columns
    lines = search._encode(
        family, list(map(tuple, params)), orders, Ds, kinds, list(map(tuple, notes))
    )
    assert lines == [
        json.dumps(
            {"family": family, "params": p, "order": o, "D": d, "class": k.value, "notes": n}
        )
        for p, o, d, k, n in rows
    ]


# text that the fast decode reads as it stands, with separators a naive
# split would cut at, and text that a cache line must escape
PLAIN = st.lists(st.sampled_from([", ", ",", "a", " ", "[", "]", "{", "}", ": "]), max_size=5).map(
    "".join
)
TRICKY = st.lists(
    st.sampled_from(['", "', ", ", '"', "\\", "\x00", "\x1f", "\x7f", "é", "雪", "a", " "]),
    max_size=5,
).map("".join)
edge_ints = st.sampled_from([0, -1, 1, 2**80, -(2**80)]) | huge_ints


C6 = SearchRecord("cyclic", (6,), 6, 12, GroupKind.LEINSTER)
C6_LINE = C6.to_json()


@pytest.mark.parametrize(
    "line, expected",
    [
        # -0 is a JSON integer, but not one a sweep writes
        (C6_LINE.replace("[6]", "[-0]"), dataclasses.replace(C6, params=(0,))),
        (C6_LINE.replace('"order": 6', '"order": -0'), dataclasses.replace(C6, order=0)),
        # a leading zero is not JSON
        (C6_LINE.replace("[6]", "[007]"), ValueError),
        (C6_LINE.replace('"D": 12', '"D": 012'), ValueError),
        (C6_LINE.replace(": ", ":").replace(", ", ","), C6),
        (
            '{"notes": [], "class": "leinster", "D": 12, "order": 6, '
            '"params": [6], "family": "cyclic"}',
            C6,
        ),
        (C6_LINE.replace('"leinster"', '"perfect"'), ValueError),
        (C6_LINE.replace('"leinster"', '"Leinster"'), ValueError),
    ],
    ids=["minus-zero-param", "minus-zero-order", "leading-zeros", "leading-zero-D", "no-spaces",
         "reordered-keys", "unknown-class", "class-case"],
)
def test_noncanonical_lines_decode_as_json_loads_does(line, expected, tmp_path, capsys):
    # json.loads reads some of these lines as a record (`expected`), and
    # the rest as no JSON or no class; the cache reader takes none of them:
    # each is a corrupt line, warned and recomputed
    if expected is ValueError:
        with pytest.raises((ValueError, KeyError)):
            search._KINDS[json.loads(line)["class"]]
    else:
        assert json.loads(line) == json.loads(expected.to_json())
    assert search._fault(line) is not None
    argv = ["search", "cyclic", "--max-n", "8", "--include-edge"]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    cache = tmp_path / "cache.jsonl"
    cache.write_text(line + "\n")
    assert cli.main(argv + ["--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err.startswith("warning: skipping corrupt cache line 1: ")
    assert captured.err.count("\n") == 1
    assert cache.read_text() == line + "\n" + cold


# the old form of the canonical-line pattern: each list an optional repeat
_REFERENCE_CANONICAL_LINE = re.compile(
    rf'{{"family": "({search._CHARS})", '
    rf'"params": \[((?:{search._INT}(?:, {search._INT})*)?)\], '
    rf'"order": ({search._INT}), "D": ({search._INT}), "class": "({search._CHARS})", '
    rf'"notes": \[((?:"{search._CHARS}"(?:, "{search._CHARS}")*)?)\]}}'
)
LINE_PIECES = st.sampled_from(
    ["", "0", "-0", "7", "-12", "007", ", ", ",", "[", "]", '"', '", "', "a", " ", "\\", "}"]
)


@example(line=C6_LINE.replace("[6]", "[6, 7]").replace("[]", '["a", "b, c"]'))
@given(
    line=st.builds(
        lambda record, cuts, pieces: _splice(record.to_json(), cuts, pieces),
        st.builds(
            SearchRecord,
            family=PLAIN | st.sampled_from(search.FAMILIES),
            params=st.lists(edge_ints, max_size=3).map(tuple),
            order=edge_ints,
            D=edge_ints,
            kind=st.sampled_from(list(GroupKind)),
            notes=st.lists(PLAIN | st.sampled_from(NOTES), max_size=3).map(tuple),
        ),
        st.lists(st.integers(0, 200), max_size=2),
        st.lists(LINE_PIECES, max_size=2),
    )
)
def test_canonical_line_pattern_matches_as_its_reference_form(line):
    ours = search._CANONICAL_LINE.fullmatch(line)
    reference = _REFERENCE_CANONICAL_LINE.fullmatch(line)
    assert (ours is None) == (reference is None)
    if ours is not None:
        assert ours.groups() == reference.groups()


def _splice(line, cuts, pieces):
    """`line` with each piece written over the text at its cut."""
    for cut, piece in zip(cuts, pieces):
        cut = min(cut, len(line))
        line = line[:cut] + piece + line[cut + len(piece):]
    return line


@given(
    records=st.lists(
        st.builds(
            lambda params, order, D, notes: SearchRecord(
                "zm", params, order, D, families.classify_kind(D, order), notes
            ),
            st.lists(st.integers(0, 10**30), max_size=3).map(tuple),
            st.integers(1, 10**30),
            st.integers(1, 10**30),
            st.lists(PLAIN | st.sampled_from(NOTES), max_size=3).map(tuple),
        ),
        min_size=1,
        max_size=6,
    ),
    spoil=st.sampled_from([None, "other-family", "class", "noncanonical", "unknown-class"]),
)
def test_a_block_decodes_together_as_its_lines_decode_one_by_one(records, spoil):
    lines = [record.to_json() for record in records]
    if spoil == "other-family":
        lines[-1] = lines[-1].replace('"zm"', '"cyclic"', 1)
    elif spoil == "class":
        kind = records[-1].kind
        lines[-1] = dataclasses.replace(
            records[-1], kind=GroupKind.ABUNDANT if kind is GroupKind.DEFICIENT else GroupKind.DEFICIENT
        ).to_json()
    elif spoil == "noncanonical":
        lines[-1] = lines[-1].replace(": ", ":")
    elif spoil == "unknown-class":
        lines[-1] = lines[-1].replace(f'"{records[-1].kind.value}"', '"perfect"')
    decoded = search._decode_canonical("zm", "\n".join(lines) + "\n", lines)
    if spoil is not None:
        assert decoded is None
        return
    assert decoded.lines is lines
    decoded = decoded.records()
    assert decoded == records
    assert [record.to_json() for record in decoded] == lines
    assert all(record.to_json() == line for record, line in zip(decoded, lines))


def test_cache_read_in_chunks_skips_and_recomputes_as_line_by_line(tmp_path, capsys):
    argv = ["search", "cyclic", "--max-n", str(3 * search._CHUNK), "--include-edge"]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    lines = cold.splitlines()
    assert [i // search._CHUNK for i in (3000, 5999, 9000)] == [0, 1, 2]  # one edit a chunk
    corrupt = lines[9000].replace('"class": "deficient"', '"class": "abundant"')
    assert corrupt != lines[9000]
    cached = list(lines)
    cached[3000] = lines[3000].replace(": ", ":")  # JSON, not the form a sweep writes
    cached[5999] = "  " + lines[5999] + "\r"  # nor is this
    cached[9000] = corrupt  # n = 9001, a prime
    cache = tmp_path / "cache.jsonl"
    cache.write_text("\n".join(cached) + "\n")
    assert cli.main(argv + ["--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err == "warning: skipping corrupt cache line 3001: not a line a sweep writes\n"
    # the line for n = 3002 then ends the prefix: nothing more is read, and
    # nothing is appended
    assert cache.read_bytes().decode().split("\n") == cached + [""]
    # each is a corrupt line on its own, warned and skipped, and the prefix
    # goes on past it
    cache.write_text("\n".join([*lines[:3000], cached[3000], *lines[3000:5999], cached[5999],
                                *lines[5999:9000], corrupt, *lines[9000:]]) + "\n")
    written = cache.read_bytes()
    assert cli.main(argv + ["--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err == (
        "warning: skipping corrupt cache line 3001: not a line a sweep writes\n"
        "warning: skipping corrupt cache line 6001: not a line a sweep writes\n"
        "warning: skipping corrupt cache line 9003: class 'abundant' disagrees with "
        "D = 9002 and order 9001\n"
    )
    assert cache.read_bytes() == written


def test_cache_bytes_not_utf8_fail_the_read_at_their_line(tmp_path, monkeypatch, capsys):
    # affine decodes its cache: the bad bytes make their line a corrupt one,
    # and every row around it is taken
    argv = ["search", "affine", "--max-q", "20000"]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    lines = [line.encode() for line in cold.splitlines()]
    bad = [b'{"fam\xffily"', lines[1500].replace(b'"notes": [', b'"notes": ["\xff\xfe"')]
    cache = tmp_path / "cache.jsonl"
    data = b"\n".join(lines[:1500] + bad + lines[1500:]) + b"\n"
    cache.write_bytes(data)
    evaluate_batch = search._evaluate_batch
    computed = []

    def counting(family, batch):
        computed.extend(batch)
        return evaluate_batch(family, batch)

    monkeypatch.setattr(search, "_evaluate_batch", counting)
    assert cli.main(argv + ["--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert computed == []
    assert captured.err == (
        "warning: skipping corrupt cache line 1501: not a line a sweep writes\n"
        "warning: skipping corrupt cache line 1502: not a line a sweep writes\n"
    )
    assert cache.read_bytes() == data


# per family read by the walk (cyclic compares bytes, affine decodes): a bound
# of one chunk and one of two or three
WALKED_SWEEPS = {
    "cyclic": ("--max-n", [300, 2 * search._CHUNK + 100]),
    "affine": ("--max-q", [2000, 50_000]),
}


@functools.cache
def _walked_cold(family, bound):
    """The params and lines of every row of a sweep of `family` to `bound`, edges included."""
    key = WALKED_SWEEPS[family][0][2:].replace("-", "_")
    records = sweep(family=family, bounds={key: bound}, include_edge=True)
    return [r.params for r in records], [r.to_json() for r in records]


def _edit(rows, edit, i, j):
    """`rows`, the byte lines of a cache, with one edit made at line `i` (and `j`)."""
    at = i % (len(rows) + 1)
    if edit == "blank":
        return rows.insert(at, [b"", b" ", b"\r", b"\t "][j % 4])
    if edit == "other-family":
        return rows.insert(at, search.run_classify("dihedral", [j % 50 + 1]).to_json().encode())
    if not rows:
        return
    j %= len(rows)
    if edit == "delete":
        del rows[j]
    elif edit == "duplicate":
        rows.insert(at, rows[j])
    elif edit == "swap":
        at %= len(rows)
        rows[at], rows[j] = rows[j], rows[at]
    elif edit == "class":
        kinds = [kind.value.encode() for kind in GroupKind]
        rows[j] = re.sub(rb'"class": "[a-z-]+"', b'"class": "%s"' % kinds[i % 5], rows[j])
    elif edit == "spacing":
        rows[j] = rows[j].replace(b": ", b":", 1)
    elif edit == "not-utf8":
        rows[j] = rows[j][: i % 80] + b"\xff\xfe" + rows[j][i % 80 :]


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(sorted(WALKED_SWEEPS)),
    size=st.integers(0, 1),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["delete", "duplicate", "swap", "class", "spacing", "blank",
                             "other-family", "not-utf8"]),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        max_size=6,
    ),
    cut=st.none() | st.integers(0, 10**7),
)
def test_a_warm_sweep_reads_any_cache_as_the_line_by_line_rule(family, size, edits, cut):
    # stdout, stderr and the bytes appended are those of the prefix rule
    # stated one line at a time (tests/cache_reference.py), for caches a
    # sweep wrote and then edited, cut short or torn
    flag, bounds = WALKED_SWEEPS[family]
    params, lines = _walked_cold(family, bounds[size])
    rows = [line.encode() for line in lines]
    for edit in edits:
        _edit(rows, *edit)
    data = b"".join(row + b"\n" for row in rows)
    if cut is not None:
        data = data[: cut % (len(data) + 1)]
    printed, warnings, appended = prefix_walk(data, family, params, lines)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "cache.jsonl"
        cache.write_bytes(data)
        argv = ["search", family, flag, str(bounds[size]), "--include-edge", "--cache", str(cache)]
        with redirect_stdout(out), redirect_stderr(err):
            assert cli.main(argv) == 0
        assert cache.read_bytes() == data + appended
    assert out.getvalue() == "".join(line + "\n" for line in printed)
    assert err.getvalue() == "".join(warnings)


def test_record_stays_a_frozen_picklable_dataclass():
    record = SearchRecord("cyclic", (6,), 6, 12, GroupKind.LEINSTER)
    assert [f.name for f in dataclasses.fields(SearchRecord)] == [
        "family", "params", "order", "D", "kind", "notes"
    ]
    assert record == C6 and hash(record) == hash(C6)
    assert SearchRecord("cyclic", (6,), 6, 12, GroupKind.LEINSTER, ()) == C6
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.D = 13


def brute_force_zm(max_m, max_n, paper_mode=False, fixed_r=None):
    """Every (m, n, r) in bounds passed through zm_validate, r over all of Z/m."""
    out = []
    if paper_mode:
        for m in range(2, max_m + 1):
            if not numtheory.is_prime(m):
                continue
            n = m - 1
            if max_n is not None and n > max_n:
                continue
            candidates = [fixed_r] if fixed_r is not None else range(2, m)
            for r in candidates:
                if families.zm_validate(m, n, r) is not None:
                    out.append((m, n, r % m))
    else:
        for m in range(1, max_m + 1):
            for n in range(1, max_n + 1):
                if math.gcd(m, n) != 1:
                    continue
                candidates = [fixed_r % m] if fixed_r is not None else range(0, m)
                for r in candidates:
                    if families.zm_validate(m, n, r) is not None:
                        out.append((m, n, r))
    return sorted(set(out))


@pytest.mark.parametrize("fixed_r", [None, 0, 1, 2, 3, 4, 7, -1, 100])
@pytest.mark.parametrize("paper_mode", [False, True])
def test_zm_enumeration_equals_brute_force(paper_mode, fixed_r):
    bounds = [(60, 30)] + ([(60, None), (60, 40)] if paper_mode else [])
    for max_m, max_n in bounds:
        cfg = SweepConfig(
            family="zm",
            bounds={"max_m": max_m} | ({"max_n": max_n} if max_n else {}),
            paper_mode=paper_mode,
            fixed_r=fixed_r,
        )
        expected = brute_force_zm(max_m, max_n, paper_mode, fixed_r)
        assert list(search._enumerate_zm(cfg)) == expected
        assert expected or fixed_r in (0, 1)


def test_the_zm_enumerator_factors_each_modulus_once(monkeypatch):
    factored, ordered = [], []
    factorize, mult_order = numtheory.factorize, numtheory.mult_order
    monkeypatch.setattr(numtheory, "factorize", lambda n: factored.append(n) or factorize(n))
    monkeypatch.setattr(numtheory, "mult_order", lambda r, m: ordered.append(r) or mult_order(r, m))
    search._zm_prime.cache_clear()
    m = 3 * 5 * 7 * 11
    rows = list(search._zm_triples(m, 1, 60))
    assert {r for _, _, r in rows} == {692, 923, 1154}  # of order 2 or 4, prime to m
    # m once, and p - 1 once for each prime p of m, for its primitive root
    # and the divisors of p - 1; no residue takes a multiplicative order
    assert (factored, ordered) == ([m, 2, 4, 6, 10], [])
    expected = [families.zm_divisor_sum(families.ZMTriple(*t)) for t in rows]
    factored.clear()
    assert list(search._zm_triples(m, 1, 60)) == rows
    assert search._zm_count(m, 1, 60, None, False) == len(rows)
    assert search._zm_batch(rows)[1] == expected
    # the primes are kept: the enumerator, the count and the batch factor m alone
    assert factored == [m, m, m]
    # a fixed r takes its order mod each p^e
    assert list(search._zm_triples(m, 1, 60, fixed_r=692)) == [t for t in rows if t[2] == 692]
    assert ordered == [692] * 4


def test_zm_enumeration_keeps_the_m_equals_1_records():
    params = list(search._enumerate_zm(SweepConfig(family="zm", bounds={"max_m": 3, "max_n": 4})))
    assert [p for p in params if p[0] == 1] == [(1, n, 0) for n in range(1, 5)]


def test_zm_dedupe_evaluates_only_canonical_triples(monkeypatch):
    seen = []
    evaluate = search._evaluate_batch

    def watched(family, batch):
        seen.extend(batch)
        return evaluate(family, batch)

    monkeypatch.setattr(search, "_evaluate_batch", watched)
    bounds = {"max_m": 40, "max_n": 12}
    records = sweep(family="zm", bounds=bounds, dedupe=True)
    assert seen
    for params in seen:
        triple = families.ZMTriple(*params)
        assert zm_canonical(triple) == triple, params
    everything = sweep(family="zm", bounds=bounds)
    assert records == [
        r for r in everything if zm_canonical(families.ZMTriple(*r.params)).r == r.params[2]
    ]


@pytest.mark.parametrize("dedupe", [False, True])
@pytest.mark.parametrize("fixed_r", [None, 0, 1, 2, 5])
@pytest.mark.parametrize("paper_mode", [False, True])
def test_zm_enumeration_equals_the_residue_scan(paper_mode, fixed_r, dedupe):
    bounds = [(301, 40)] + ([(301, None), (60, 12)] if paper_mode else [(60, 12), (9, 1)])
    for max_m, max_n in bounds:
        cfg = SweepConfig(
            family="zm",
            bounds={"max_m": max_m} | ({"max_n": max_n} if max_n else {}),
            paper_mode=paper_mode,
            fixed_r=fixed_r,
            dedupe=dedupe,
        )
        expected = enumerate_zm_scan(max_m, max_n, paper_mode, fixed_r, dedupe)
        assert list(search._enumerate_zm(cfg)) == expected
        assert expected or fixed_r in (0, 1) or max_n == 1


def test_zm_up_to_equals_the_residue_scan():
    for max_order in (24, 100, 200, 300):
        assert list(search.FAMILY["zm"].up_to(max_order)) == zm_up_to_scan(max_order)


@pytest.mark.parametrize("dedupe", [False, True])
def test_zm_count_equals_the_enumerated_count_and_the_identity(dedupe):
    max_n = 40
    for m in range(1, 302, 2):
        count = search._zm_count(m, 1, max_n, None, dedupe)
        assert count == len(list(search._zm_triples(m, 1, max_n, dedupe=dedupe))), m
        if not dedupe:
            primes = [p for p, _ in numtheory.factorize(m)]
            assert count == sum(
                math.prod(math.gcd(n, p - 1) - 1 for p in primes)
                for n in range(1, max_n + 1)
                if math.gcd(m, n) == 1
            ), m


def test_the_zm_budget_counts_the_triples_enumerated():
    for options in ({}, {"dedupe": True}, {"fixed_r": 2}, {"paper_mode": True}):
        bounds = {"max_m": 120} if options.get("paper_mode") else {"max_m": 120, "max_n": 30}
        cfg = SweepConfig(family="zm", bounds=bounds, **options)
        per_m = Counter(m for m, _, _ in search._enumerate_zm(cfg))
        # a scanned odd m without a triple is one step of the scan
        steps = sum(max(1, per_m[m]) for m in range(1, 121, 2))
        assert list(search._enumerate_zm(dataclasses.replace(cfg, budget=steps)))
        with pytest.raises(search.BudgetError, match=f"more than {steps - 1} tuples"):
            search._enumerate_zm(dataclasses.replace(cfg, budget=steps - 1))
    # more odd m than the budget is refused before any m is counted
    cfg = SweepConfig(family="zm", bounds={"max_m": 10**12, "max_n": 1}, budget=10**6)
    with pytest.raises(search.BudgetError, match="more than 1000000 tuples"):
        search._enumerate_zm(cfg)


def test_zm_batches_equal_zm_divisor_sum_on_every_triple():
    cfg = SweepConfig(family="zm", bounds={"max_m": 301, "max_n": 40})
    triples = list(search._enumerate_zm(cfg))
    expected = [families.zm_divisor_sum(families.ZMTriple(*t)) for t in triples]
    orders, Ds, notes = search._zm_batch(triples)
    assert (orders, Ds, notes) == ([m * n for m, n, _ in triples], expected, [()] * len(triples))
    # chunks, and sparse subsets as a warm sweep's gaps give them
    for start in range(0, len(triples), search._CHUNK):
        chunk = triples[start : start + search._CHUNK]
        assert search._zm_batch(chunk)[1] == expected[start : start + search._CHUNK]
    for step in (7, 101):
        assert search._zm_batch(triples[3::step])[1] == expected[3::step]
    # past the sigma table: each sigma(n / L) by divisor_sum
    big = [(1, 2**17 + 1, 0), (7, 2**17 + 1, 2), (7, 2**17 + 2, 6), (13, 2**18, 12)]
    expected = [families.zm_divisor_sum(families.zm_validate(*t)) for t in big]
    assert search._zm_batch(big)[1] == expected


def scan_and_sort_pq(max_q, max_p=None):
    """The pq pairs as a scan of every p below every prime q, then a sort."""
    max_p = max_q if max_p is None else max_p
    out = []
    for q in range(3, max_q + 1):
        if not numtheory.is_prime(q):
            continue
        for p in range(2, min(q - 1, max_p) + 1):
            if (q - 1) % p == 0 and numtheory.is_prime(p):
                out.append((p, q))
    out.sort()
    return out


@pytest.mark.parametrize("max_p", [None, 1, 2, 3, 7, 5000])
@pytest.mark.parametrize("max_q", [1, 2, 3, 4, 7, 50, 2000])
def test_pq_enumeration_equals_scan_and_sort(max_q, max_p):
    bounds = {"max_q": max_q} | ({"max_p": max_p} if max_p is not None else {})
    pairs = search._enumerate_pq(SweepConfig(family="pq", bounds=bounds))
    assert not isinstance(pairs, list)  # generated in order, never held whole
    assert list(pairs) == scan_and_sort_pq(max_q, max_p)


@pytest.mark.parametrize("max_p", [None, 1, 2, 3, 7, 5000])
@pytest.mark.parametrize("max_q", [1, 2, 3, 4, 7, 50, 2000, 4000])
def test_pq_budget_bounds_the_steps_walked(max_q, max_p):
    # _enumerate_pq takes one step per p <= P and one per q it tries
    bounds = {"max_q": max_q} | ({"max_p": max_p} if max_p is not None else {})
    top = min(max_q if max_p is None else max_p, max_q - 1)
    steps = 0
    for p in range(2, top + 1):
        steps += 1
        if numtheory.is_prime(p):
            steps += len(range(1 + (p if p == 2 else 2 * p), max_q + 1, p if p == 2 else 2 * p))
    count = search.FAMILY["pq"].tuple_count(SweepConfig(family="pq", bounds=bounds))
    assert steps <= count


def test_pq_enumeration_yields_its_first_pair_at_once(monkeypatch):
    calls = []
    is_prime = numtheory.is_prime
    monkeypatch.setattr(numtheory, "is_prime", lambda n: calls.append(n) or is_prime(n))
    pairs = search._enumerate_pq(SweepConfig(family="pq", bounds={"max_q": 3000}))
    assert next(pairs) == (2, 3)
    assert len(calls) <= 3


# ---------------------------------------------------------------------------
# classify


def test_classify_zm():
    record = search.run_classify("zm", [7, 6, 3])
    assert (record.order, record.D, record.kind) == (42, 85, GroupKind.QUASI_LEINSTER)


def test_classify_affine_carries_label_note():
    record = search.run_classify("affine", [7])
    assert search.oracle_crosscheck(record) is True
    assert (record.order, record.D) == (42, 85)
    assert record.kind is GroupKind.QUASI_LEINSTER
    assert "paper-label-differs" in record.notes


def test_classify_dicyclic():
    record = search.run_classify("dicyclic", [3])
    assert search.oracle_crosscheck(record) is True
    assert (record.order, record.D, record.kind) == (12, 24, GroupKind.LEINSTER)


def test_classify_invalid_zm_names_condition():
    with pytest.raises(ValueError, match=r"gcd\(m, r-1\)"):
        search.run_classify("zm", [7, 6, 1])


def test_classify_verify_crosschecks_oracle():
    for family, params in [
        ("cyclic", [30]),
        ("dihedral", [9]),
        ("gen-dihedral", [2, 4]),
        ("dicyclic", [5]),
        ("zm", [13, 6, 4]),
        ("affine", [11]),
        ("pq", [3, 7]),
    ]:
        assert search.oracle_crosscheck(search.run_classify(family, params)) is True


# a small sweep per family, each instance held to its record's oracle builder
RECORD_SWEEPS = {
    "cyclic": {"max_n": 60},
    "dihedral": {"max_n": 30},
    "dicyclic": {"max_n": 15},
    "gen-dihedral": {"max_a": 32},
    "zm": {"max_m": 30, "max_n": 10},
    "affine": {"max_q": 23},
    "pq": {"max_q": 60},
}


@pytest.mark.parametrize("family", search.FAMILIES)
def test_record_formula_agrees_with_its_oracle_builder(family):
    records = sweep(family=family, bounds=RECORD_SWEEPS[family], include_edge=True)
    assert records
    for record in records:
        # Aff(q) has an oracle build only for prime q; G(13, 53) and G(29, 59)
        # are above the oracle's order cap
        in_scope = record.order <= oracle.order_cap() and (
            family != "affine" or numtheory.is_prime(record.params[0])
        )
        assert search.oracle_crosscheck(record) is (True if in_scope else None), record


def reference_evaluate(family, params):
    """One tuple's record, evaluated on its own: the per-tuple path that the
    batch evaluator replaced, kept here as the reference."""
    try:
        fam = search.FAMILY[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    arity = fam.arity
    if arity is not None and len(params) != arity:
        raise ValueError(
            f"{family} takes {arity} parameter{'s' if arity != 1 else ''}, "
            f"got {len(params)}"
        )
    order, total, notes = fam.evaluate(params)
    kind = reference_kind(total, order)
    if order == 1:
        notes += (search.NOTE_EDGE,)
    return SearchRecord(family, tuple(params), order, total, kind, notes)


@pytest.mark.parametrize("family", search.FAMILIES)
def test_sweep_and_classify_equal_the_per_tuple_reference(family):
    cfg = SweepConfig(family=family, bounds=RECORD_SWEEPS[family], include_edge=True)
    swept = list(search.run_sweep(cfg))
    reference = [reference_evaluate(family, p) for p in search.FAMILY[family].enumerate(cfg)]
    classified = [search.run_classify(family, list(r.params)) for r in reference]
    assert swept == classified == reference
    lines = [r.to_json() for r in reference]
    assert [r.to_json() for r in swept] == [r.to_json() for r in classified] == lines
    assert [r.params for r in swept if search.NOTE_EDGE in r.notes] == {
        "cyclic": [(1,)], "zm": [(1, 1, 0)]
    }.get(family, [])
    arity = search.FAMILY[family].arity
    if arity is not None:
        for params in ([], [2] * (arity + 1)):
            with pytest.raises(ValueError) as expected:
                reference_evaluate(family, tuple(params))
            with pytest.raises(ValueError) as got:
                search.run_classify(family, params)
            assert str(got.value) == str(expected.value)


def _bound_args(bounds):
    return [arg for key, n in bounds.items() for arg in ("--" + key.replace("_", "-"), str(n))]


def _per_tuple_params(family, bounds):
    """The params a sweep covers, listed without the family's enumerator."""
    if family == "affine":
        return [(q,) for q in range(2, bounds["max_q"] + 1) if numtheory.prime_power_decompose(q)]
    lo = 2 if family == "dicyclic" else 1
    return list(zip(range(max(lo, bounds.get("min_n", lo)), bounds["max_n"] + 1)))


def counting_evaluators(monkeypatch, family):
    """The params the family's `evaluate` is called on, and the batches its
    `evaluate_batch` is called on, in call order."""
    record, per_tuple, batches = search.FAMILY[family], [], []
    replaced = dataclasses.replace(
        record,
        evaluate=lambda params: per_tuple.append(params) or record.evaluate(params),
        evaluate_batch=lambda batch: batches.append(list(batch)) or record.evaluate_batch(batch),
    )
    monkeypatch.setitem(search.FAMILY, family, replaced)
    return per_tuple, batches


CAP = numtheory.SIEVE_CAP


@pytest.mark.parametrize(
    "family, bounds, cap",
    [
        # SIEVE_CAP lowered to 2^7: the last chunk passes the cut
        # SIEVE_CAP**2 = 16384, where each n takes divisor_sum
        ("cyclic", {"max_n": 4 * search._CHUNK + 5}, 2**7),
        ("dicyclic", {"max_n": 4 * search._CHUNK + 5}, 2**7),
        ("affine", {"max_q": 20000}, 2**7),
        # windows around and far above 2^22
        ("dihedral", {"min_n": CAP - 1000, "max_n": CAP + 5000}, None),
        ("dihedral", {"min_n": 10**9, "max_n": 10**9 + search._CHUNK + 5}, None),
        ("dicyclic", {"min_n": 5 * 10**6, "max_n": 5 * 10**6 + search._CHUNK + 5}, None),
    ],
)
def test_sweeps_above_the_sieve_cap_equal_the_per_tuple_reference(family, bounds, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(numtheory, "SIEVE_CAP", cap)
    params = _per_tuple_params(family, bounds)
    reference = [reference_evaluate(family, p).to_json() for p in params]
    per_tuple, batches = counting_evaluators(monkeypatch, family)
    cfg = SweepConfig(family=family, bounds=bounds, include_edge=True)
    assert [line for chunk in search.sweep_chunks(cfg) for line in chunk.lines] == reference
    # one `evaluate_batch` per chunk, no tuple on its own
    chunks = [params[k : k + search._CHUNK] for k in range(0, len(params), search._CHUNK)]
    assert (batches, per_tuple) == (chunks, [])


@pytest.mark.parametrize(
    "family, bounds",
    [
        ("cyclic", {"max_n": 2 * search._CHUNK + 10}),
        ("dihedral", {"min_n": 10**9, "max_n": 10**9 + 2 * search._CHUNK}),
        ("dicyclic", {"max_n": 2 * search._CHUNK + 10}),
        ("affine", {"max_q": 20000}),
    ],
)
def test_a_warm_sweep_with_cache_gaps_prints_the_cold_output(
    family, bounds, tmp_path, monkeypatch, capsys
):
    argv = ["search", family, *_bound_args(bounds), "--include-edge"]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    cache = tmp_path / "cache.jsonl"
    argv += ["--cache", str(cache)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == cold
    lines = cache.read_text().splitlines(keepends=True)
    cache.write_text("".join(line for i, line in enumerate(lines) if i % 5))
    written = cache.read_bytes()
    params = [tuple(json.loads(line)["params"]) for line in lines]
    per_tuple, batches = counting_evaluators(monkeypatch, family)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == cold
    # the first line is missing, so the second ends the prefix: one
    # `evaluate_batch` per chunk, of the whole chunk, no tuple on its own,
    # and nothing appended
    chunks = [params[k : k + search._CHUNK] for k in range(0, len(params), search._CHUNK)]
    assert (per_tuple, batches) == ([], chunks)
    assert cache.read_bytes() == written


def _window_params(family, lo, width):
    """The valid params of `family` whose n, or q, is in [lo, lo + width), sorted."""
    top = lo + width
    if family == "affine":
        return [(q,) for q in range(max(lo, 2), top) if numtheory.prime_power_decompose(q)]
    if family == "pq":
        return sorted((p, q) for q in range(lo, top) if numtheory.is_prime(q)
                      for p, _ in numtheory.factorize(q - 1))
    return list(zip(range(max(lo, 2 if family == "dicyclic" else 1), top)))


# n, or q, near the cut SIEVE_CAP**2 when the cap is lowered to 2^7
_CUT = (2**7) ** 2


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["cyclic", "dihedral", "dicyclic", "affine", "pq"]),
    st.one_of(st.integers(1, 10**6), st.integers(10**9, 10**12), st.integers(_CUT - 400, _CUT)),
    st.integers(1, 400),
    st.lists(st.booleans(), min_size=1, max_size=8),
)
@example("cyclic", 1, 1, [True])  # one element
@example("dicyclic", _CUT - 10, 20, [True, False, False])  # gaps, across the cut
@example("affine", _CUT - 60, 120, [True])  # the whole window, across the cut
@example("pq", 2, 400, [False, True])
def test_evaluate_batch_equals_evaluate_of_each_params(family, lo, width, keep):
    # `keep`, repeated, picks the batch out of the window: a sorted subset
    batch = list(compress(_window_params(family, lo, width), cycle(keep)))
    assume(batch)
    fam = search.FAMILY[family]
    cap = 2**7 if _CUT - 400 <= lo <= _CUT else numtheory.SIEVE_CAP
    with mock.patch.object(numtheory, "SIEVE_CAP", cap):
        got = fam.evaluate_batch(batch)
    assert [list(column) for column in got] == [list(c) for c in zip(*map(fam.evaluate, batch))]


@pytest.mark.parametrize("lo, hi", [(2, 2**17), (2**22 - 3000, 2**22 + 3000)])
def test_affine_batches_read_primality_from_sigma(lo, hi):
    qs = [q for q in numtheory.prime_powers(hi) if q >= lo]
    for k in range(0, len(qs), search._CHUNK):
        batch = list(zip(qs[k : k + search._CHUNK]))
        _, _, notes = search.FAMILY["affine"].evaluate_batch(batch)
        assert [search.NOTE_FORMULA_ONLY not in n for n in notes] == [
            numtheory.is_prime(q) for (q,) in batch
        ]


def test_affine_enumerates_and_lists_for_verify_the_prime_powers_in_order():
    affine = search.FAMILY["affine"]
    for max_q in (1, 2, 3, 23, 5000):
        cfg = SweepConfig(family="affine", bounds={"max_q": max_q})
        assert list(affine.enumerate(cfg)) == _per_tuple_params("affine", {"max_q": max_q})
    for max_order in (1, 2, 6, 100, 512, 10**4):
        prime_powers = _per_tuple_params("affine", {"max_q": max_order})
        expected = [(q,) for (q,) in prime_powers if q * (q - 1) <= max_order]
        assert list(affine.up_to(max_order)) == expected


def test_batch_evaluator_refuses_an_unknown_family_as_the_reference_does():
    with pytest.raises(ValueError, match="unknown family 'nope'"):
        reference_evaluate("nope", (1,))
    with pytest.raises(ValueError, match="unknown family 'nope'"):
        search._evaluate_batch("nope", [(1,)])
    with pytest.raises(ValueError, match="unknown family 'nope'; expected one of"):
        search.run_classify("nope", [1])


def test_classify_verify_skips_oversized_oracle():
    record = search.run_classify("zm", [33550337, 33550336, 3])
    assert search.oracle_crosscheck(record) is None
    assert record.kind is GroupKind.QUASI_LEINSTER


# ---------------------------------------------------------------------------
# records and CLI


def test_record_json_roundtrip():
    record = search.run_classify("affine", [2])
    line = record.to_json()
    assert search._decode_canonical("affine", line, [line]).records() == [record]


def test_cli_classify_json(capsys):
    assert cli.main(["classify", "--family", "zm", "--params", "7,6,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "family": "zm",
        "params": [7, 6, 3],
        "order": 42,
        "D": 85,
        "class": "quasi-leinster",
        "notes": [],
    }


def test_cli_search_table(capsys):
    assert (
        cli.main(
            ["search", "dicyclic", "--max-n", "20", "--class", "leinster", "--table"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "leinster" in out and "24" in out


def test_cli_exit_codes(capsys):
    assert cli.main(["classify", "--family", "zm", "--params", "7,6,1"]) == 2
    assert cli.main(["classify", "--family", "zm", "--params", "oops"]) == 1
    assert cli.main(["search", "cyclic"]) == 2  # missing bound
    assert cli.main(["search", "zm", "--max-m", "9999", "--max-n", "9999"]) == 4
    assert cli.main(["nonsense"]) == 1
    capsys.readouterr()
    # the zm budget counts the 656 triples enumerated, (1, 1, 0) among them,
    # not max_m * max_n * max_m = 100,000
    argv = ["search", "zm", "--max-m", "100", "--max-n", "10"]
    assert cli.main(argv + ["--budget", "655"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource cap: sweep bounds describe more than 655 tuples, over the budget of 655\n"
    )
    assert cli.main(argv + ["--budget", "656"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 655  # the edge (1, 1, 0) dropped


def test_cli_perfect_plus_one(capsys):
    assert cli.main(["perfect-plus-one", "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert "solutions: {1, 2}" in out
    assert "P+1=29" in out


def test_cli_verify_small(capsys):
    assert cli.main(["verify", "--max-order", "20"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
