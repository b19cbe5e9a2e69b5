import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import leinster
from leinster import cli, families, search


def test_classify_gen_dihedral_c2_to_the_ninth(capsys):
    argv = ["classify", "--family", "gen-dihedral", "--params", "2,2,2,2,2,2,2,2,2"]
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert code == cli.EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["D"] == 8703733139
    assert record["order"] == 1024
    assert elapsed < 1.0


def test_classify_gen_dihedral_above_the_oracle_cap(capsys):
    argv = ["classify", "--family", "gen-dihedral", "--params", "1024"]
    assert cli.main(argv) == cli.EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["D"] == 2047 + 4 * 1024


def test_classify_gen_dihedral_verify_skips_above_the_cap(capsys):
    argv = ["classify", "--family", "gen-dihedral", "--params", "1024", "--verify"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "skipped" in capsys.readouterr().err


def test_classify_gen_dihedral_verify_crosschecks_at_order_128(capsys):
    argv = ["classify", "--family", "gen-dihedral", "--params", "2,2,2,2,4", "--verify"]
    assert cli.main(argv) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["order"] == 128
    assert captured.err == "oracle cross-check: D agrees\n"


def test_classify_gen_dihedral_zero_factor_is_a_domain_error(capsys):
    code = cli.main(["classify", "--family", "gen-dihedral", "--params", "2,0"])
    assert code == cli.EXIT_DOMAIN
    assert "domain error" in capsys.readouterr().err


def test_gen_dihedral_sweep_counts_chains_for_the_budget(capsys, monkeypatch):
    argv = ["search", "gen-dihedral", "--max-a", "3200"]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 6965
    # refused before the first chain is evaluated
    with monkeypatch.context() as m:
        m.setattr(families, "generalized_dihedral_divisor_sum", None)
        assert cli.main(argv + ["--budget", "6964"]) == cli.EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "over the budget of 6964" in captured.err
    assert cli.main(argv + ["--budget", "6965"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 6965


def test_pq_budget_counts_the_steps_walked(capsys):
    argv = ["search", "pq", "--max-q", "4000"]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1580
    assert cli.main(argv + ["--budget", "1000"]) == cli.EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource cap: sweep bounds describe up to 39990 tuples, over the budget of 1000\n"
    )
    # the bound is an integer product: no float overflows on a huge max_q
    huge = ["search", "pq", "--max-q", str(10**400), "--budget", "5"]
    assert cli.main(huge) == cli.EXIT_RESOURCE
    assert capsys.readouterr().out == ""


def test_dihedral_budget_counts_the_window_of_a_min_n_sweep(capsys):
    # a window of 20,001 n past 10^9: not max_n tuples
    argv = ["search", "dihedral", "--min-n", "1000000000", "--max-n", "1000020000"]
    assert cli.main(argv) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 20001
    assert [json.loads(lines[i])["params"] for i in (0, -1)] == [[10**9], [1000020000]]
    assert cli.main(argv + ["--budget", "20000"]) == cli.EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource cap: sweep bounds describe up to 20001 tuples, over the budget of 20000\n"
    )


def test_dicyclic_budget_counts_the_window_of_a_min_n_sweep(capsys):
    argv = ["search", "dicyclic", "--min-n", "99990", "--max-n", "100000"]
    assert cli.main(argv + ["--budget", "1000"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 11
    assert cli.main(argv + ["--budget", "10"]) == cli.EXIT_RESOURCE
    assert "describe up to 11 tuples" in capsys.readouterr().err
    # an empty window is no tuple at all
    assert cli.main(["search", "dicyclic", "--min-n", "9", "--max-n", "8", "--budget", "1"]) == 0
    assert capsys.readouterr().out == ""


def test_ctrl_c_exits_130_with_one_line(monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_classify", interrupted)
    code = cli.main(["classify", "--family", "cyclic", "--params", "6"])
    assert code == cli.EXIT_INTERRUPTED == 130
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "interrupted\n"


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["classify", "--family", "cyclic", "--params", "6"]
    assert cli.main(argv) == cli.EXIT_OK
    expected = capsys.readouterr().out
    src = str(Path(leinster.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "leinster", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


# Runs `cli.main(argv)` in a fresh interpreter.  With argv[1] == "blocked",
# numpy cannot be imported (a None entry in sys.modules makes `import numpy`
# raise) and the oracle must stay unloaded; otherwise the oracle must load.
_CLI_IN_A_SUBPROCESS = """
import sys
blocked = sys.argv.pop(1) == "blocked"
if blocked:
    sys.modules["numpy"] = None
from leinster import cli
code = cli.main(sys.argv[1:])
assert ("leinster.oracle" in sys.modules) is not blocked, sorted(sys.modules)
raise SystemExit(code)
"""


def _run_cli_subprocess(argv, blocked):
    src = str(Path(leinster.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    mode = "blocked" if blocked else "normal"
    return subprocess.run(
        [sys.executable, "-c", _CLI_IN_A_SUBPROCESS, mode, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


# one classify per family, small sweeps and the perfect-number scan: none
# builds a group
_CLASSIFY_PARAMS = {
    "cyclic": "6",
    "zm": "7,6,3",
    "affine": "8",
    "dihedral": "6",
    "gen-dihedral": "2,2,4",
    "dicyclic": "3",
    "pq": "3,7",
}
CLOSED_FORM = [
    *(["classify", "--family", f, "--params", p] for f, p in _CLASSIFY_PARAMS.items()),
    ["search", "cyclic", "--max-n", "100"],
    ["search", "dihedral", "--max-n", "50"],
    ["search", "zm", "--max-m", "20", "--max-n", "10"],
    ["search", "gen-dihedral", "--max-a", "40"],
    ["perfect-plus-one", "--count", "8"],
    ["--help"],
]


def test_closed_form_commands_cover_every_family():
    assert set(_CLASSIFY_PARAMS) == set(search.FAMILIES)


@pytest.mark.parametrize("argv", CLOSED_FORM, ids=" ".join)
def test_closed_form_commands_run_without_numpy(argv, capsys):
    try:
        assert cli.main(argv) == cli.EXIT_OK
    except SystemExit as exc:  # --help
        assert exc.code == 0
    expected = capsys.readouterr().out
    done = _run_cli_subprocess(argv, blocked=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected
    assert done.stderr == ""


def test_classify_prints_a_d_of_more_than_4300_digits(capsys):
    # D(Dih(C3^200)) has about 4,800 digits; a fresh process refuses to turn
    # an int of more than 4,300 into a string (Python 3.10.7 on) unless the
    # cli lifts that limit
    argv = ["classify", "--family", "gen-dihedral", "--params", ",".join(["3"] * 200)]
    out = {}
    for extra in ([], ["--table"]):
        done = _run_cli_subprocess(argv + extra, blocked=True)
        assert done.returncode == 0, done.stderr
        assert cli.main(argv + extra) == cli.EXIT_OK
        assert capsys.readouterr().out == done.stdout
        out[bool(extra)] = done.stdout
    want = families.generalized_dihedral_divisor_sum((3,) * 200)
    assert want > 10**4300
    assert json.loads(out[False])["D"] == want
    header, row = out[True].splitlines()
    assert row.split()[header.split().index("D")] == str(want)


@pytest.mark.parametrize(
    "argv, err",
    [
        (["classify", "--family", "zm", "--params", "7,6,3", "--verify"], "oracle cross-check: D agrees\n"),
        (["verify", "--max-order", "12"], ""),
    ],
    ids=["classify --verify", "verify"],
)
def test_commands_that_build_groups_load_the_oracle(argv, err):
    done = _run_cli_subprocess(argv, blocked=False)
    assert done.returncode == 0, done.stderr  # verify exits 3 on a FAIL
    assert done.stderr == err


def test_closed_stdout_pipe_exits_141_without_a_traceback():
    src = str(Path(leinster.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "leinster", "search", "zm", "--max-m", "150", "--max-n", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader goes away before the first write
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_reader_leaving_mid_write_exits_141():
    src = str(Path(leinster.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "leinster", "search", "cyclic", "--max-n", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = json.loads(proc.stdout.readline())  # ~9 MB follow it
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first["params"] == [2]
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert err == b""


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_broken_pipe_in_process_maps_to_141(monkeypatch, capsys):
    def closed(args):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "_cmd_search", closed)
    assert cli.main(["search", "cyclic", "--max-n", "5"]) == cli.EXIT_BROKEN_PIPE
    assert capsys.readouterr().err == ""


# (command line, exit code, first 16 hex digits of the stdout's sha256, stderr),
# recorded before the family records replaced the per-family if-chains; verify's
# elapsed time is masked
GOLDEN = [
    ('classify --family cyclic --params 6', 0, '46f70b50202d9df6', ''),
    ('classify --family cyclic --params 1', 0, '67f3927bafdf844e', ''),
    ('classify --family dihedral --params 6 --table', 0, 'f940bdf6026b8635', ''),
    ('classify --family dicyclic --params 3', 0, '86e8c04c267172cd', ''),
    ('classify --family gen-dihedral --params 2,2,4 --verify', 0, '7ee1cdf00bbca964', 'oracle cross-check: D agrees\n'),
    ('classify --family zm --params 7,6,3 --verify', 0, '345e57c2398262f4', 'oracle cross-check: D agrees\n'),
    ('classify --family affine --params 8', 0, 'b09c17739f1eac56', ''),
    ('classify --family affine --params 7 --table', 0, '6d8b95190f16795f', ''),
    ('classify --family pq --params 3,7 --verify', 0, '81a0abd0963f4c90', 'oracle cross-check: D agrees\n'),
    ('search cyclic --max-n 30 --include-edge', 0, '8723e8ed6c0b836c', ''),
    ('search dihedral --min-n 3 --max-n 30 --table', 0, '6a0e3b5382507001', ''),
    ('search dicyclic --max-n 20 --class leinster,abundant', 0, 'a41fc2d78b66a006', ''),
    ('search gen-dihedral --max-a 40', 0, '3748438bc9d4930b', ''),
    ('search zm --max-m 30 --max-n 10 --dedupe', 0, '6f99c30dc89cdfd4', ''),
    ('search zm --max-m 40 --max-n 12 --r 2 --table', 0, 'eca1e06d35ee69e1', ''),
    ('search zm --paper-mode --max-m 60', 0, 'a5ba0ba7bf47f35e', ''),
    ('search affine --max-q 60 --class quasi,almost', 0, '63ca7e7d51cd6d84', ''),
    ('search pq --max-q 60 --max-p 5', 0, 'ee6e933c39b743cd', ''),
    ('verify --max-order 24', 0, 'df2932b46837e4d7', ''),
    ('classify --family cyclic --params 6,2', 2, 'e3b0c44298fc1c14', 'domain error: cyclic takes 1 parameter, got 2\n'),
    ('classify --family pq --params 3', 2, 'e3b0c44298fc1c14', 'domain error: pq takes 2 parameters, got 1\n'),
    ('classify --family zm --params 8,3,3', 2, 'e3b0c44298fc1c14', 'domain error: gcd(m, r-1) = 2 != 1\n'),
    ('classify --family gen-dihedral --params 2,0', 2, 'e3b0c44298fc1c14', 'domain error: cyclic factor orders must be positive, got 0\n'),
    ('search cyclic --max-q 10', 2, 'e3b0c44298fc1c14', "domain error: cyclic sweeps accept bounds ['max_n'], got 'max_q'\n"),
    ('search zm --max-m 10', 2, 'e3b0c44298fc1c14', 'domain error: zm sweep needs the max_n bound\n'),
    ('search cyclic --min-n 2 --max-n 10', 2, 'e3b0c44298fc1c14', "domain error: cyclic sweeps accept bounds ['max_n'], got 'min_n'\n"),
    ('search dihedral --max-n 10 --paper-mode', 2, 'e3b0c44298fc1c14', 'domain error: paper mode applies to zm sweeps only\n'),
    ('search cyclic --max-n 10 --r 2', 2, 'e3b0c44298fc1c14', 'domain error: a fixed r applies to zm sweeps only\n'),
    ('search cyclic --max-n 6 --dedupe', 2, 'e3b0c44298fc1c14', 'domain error: dedupe applies to zm sweeps only\n'),
    ('search zm --max-m 1000 --max-n 1000 --budget 100', 4, 'e3b0c44298fc1c14', 'resource cap: sweep bounds describe more than 100 tuples, over the budget of 100\n'),
    ('search gen-dihedral --max-a 40 --budget 5', 4, 'e3b0c44298fc1c14', 'resource cap: sweep bounds describe more than 5 chains, over the budget of 5\n'),
    ('search cyclic --max-n 10 --workers 0', 1, 'e3b0c44298fc1c14', 'usage error: --workers must be at least 1\n'),
    ('search cyclic --max-n 10 --class bogus', 1, 'e3b0c44298fc1c14', "usage error: unknown class 'bogus'; expected one of ['abundant', 'almost', 'almost-leinster', 'deficient', 'leinster', 'quasi', 'quasi-leinster']\n"),
]


@pytest.mark.parametrize("line, code, digest, err", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_is_pinned(line, code, digest, err, capsys):
    assert cli.main(line.split()) == code
    captured = capsys.readouterr()
    stdout = re.sub(r" in \d+\.\d+s\n", " in Xs\n", captured.out)
    assert hashlib.sha256(stdout.encode()).hexdigest()[:16] == digest
    assert captured.err == err


def test_a_worker_count_changes_no_output_and_no_cache_byte(tmp_path, capsys):
    # --workers is accepted for compatibility: every sweep runs in one process
    runs = []
    for workers in ("1", "3"):
        cache = tmp_path / f"workers-{workers}.jsonl"
        argv = ["search", "cyclic", "--max-n", "9000", "--cache", str(cache), "--workers", workers]
        code = cli.main(argv)
        runs.append((code, capsys.readouterr(), cache.read_bytes()))
    assert runs[0] == runs[1]
    code, captured, cache_bytes = runs[0]
    assert code == 0 and captured.err == "" and len(cache_bytes.splitlines()) == 9000


# small bounds per family, a chunk boundary crossed by cyclic and dihedral
AGREEMENT_BOUNDS = {
    "cyclic": {"max_n": search._CHUNK + 50},
    "zm": {"max_m": 40, "max_n": 12},
    "affine": {"max_q": 200},
    "dihedral": {"min_n": 3, "max_n": search._CHUNK + 9},
    "gen-dihedral": {"max_a": 200},
    "dicyclic": {"max_n": 300},
    "pq": {"max_q": 300},
}
AGREEMENT_FILTERS = [
    [],
    ["--include-edge"],
    ["--class", "leinster,quasi,almost"],
    ["--class", "leinster,quasi,almost", "--include-edge"],
    ["--class", "abundant,deficient"],
]


def _reference_table(records):
    """The --table text of records, as the per-record printer wrote it."""
    headers = ("family", "params", "order", "D", "class", "notes")
    rows = [
        (r.family, ",".join(str(p) for p in r.params), str(r.order), str(r.D), r.kind.value,
         "; ".join(r.notes))
        for r in records
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows)) if rows else len(headers[col])
        for col in range(len(headers))
    ]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in [headers, *rows]]
    return "\n".join(lines + [""])


@pytest.mark.parametrize("family", search.FAMILIES)
def test_the_cli_prints_what_run_sweep_yields(family, tmp_path, capsys):
    bounds = AGREEMENT_BOUNDS[family]
    argv = ["search", family]
    for key, value in bounds.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    everything = [
        r.to_json()
        for r in search.run_sweep(search.SweepConfig(family, dict(bounds), include_edge=True))
    ]
    for i, extra in enumerate(AGREEMENT_FILTERS):
        raw = extra[extra.index("--class") + 1] if "--class" in extra else None
        cfg = search.SweepConfig(
            family, dict(bounds), classes=cli._parse_classes(raw),
            include_edge="--include-edge" in extra,
        )
        records = list(search.run_sweep(cfg))
        lines = "".join(record.to_json() + "\n" for record in records)
        cache = tmp_path / f"{i}.jsonl"
        for table in (False, True):
            expected = _reference_table(records) if table else lines
            for run in ("uncached", "cold", "warm", "warm again"):
                cached = [] if run == "uncached" else ["--cache", str(cache)]
                assert cli.main(argv + extra + cached + ["--table"] * table) == 0
                captured = capsys.readouterr()
                assert captured.out == expected, (extra, table, run)
                assert captured.err == ""
        # the cache holds every row, the filtered ones too, in sweep order
        assert cache.read_text() == "".join(line + "\n" for line in everything)
        cfg.cache_path = cache
        assert list(search.run_sweep(cfg)) == records


# (sweep, SHA-256 of the cache file it writes, SHA-256 of its stdout), for each
# sweep of the bench's sweep workload; recorded with the per-record sweep
# engine, before sweeps passed chunks of columns
CACHE_SHA256 = [
    ("cyclic --max-n 50000", "3578168bc61c576b705cceb68b43a45c1419bd76defb9f9ed3fb530c804e524a",
     "9781ac26b5355a8298f07c8f46ad63424876a8eb101e239e00d678d0c87162a6"),
    ("dihedral --max-n 20000", "6507d810cdb981c6aea63a430035ba9bbe7ab43e84878139060ab4c80a1d35fb",
     "6507d810cdb981c6aea63a430035ba9bbe7ab43e84878139060ab4c80a1d35fb"),
    ("dicyclic --min-n 2 --max-n 20000",
     "f8ae38a260925937bbbb0d25d15b377f2c6acd3198e36a8c63a3452291060351",
     "f8ae38a260925937bbbb0d25d15b377f2c6acd3198e36a8c63a3452291060351"),
    ("affine --max-q 20000", "61829f05541351f88987eeeacdcdfc817b8124be7a4ba491e53f2493c2f03eaf",
     "61829f05541351f88987eeeacdcdfc817b8124be7a4ba491e53f2493c2f03eaf"),
    ("pq --max-q 2000", "7490a51fccd0b1f691316dd8b5e5fe233c13ed59f93b38452cd00ca1f8c6f69d",
     "7490a51fccd0b1f691316dd8b5e5fe233c13ed59f93b38452cd00ca1f8c6f69d"),
    ("zm --max-m 150 --max-n 20", "2041e854f3be850bcf3215d36d6092c33228c6dc6604c716366307c4e3ec6b90",
     "f1f6696abf9c968cb5e0b8fe5d68e6be079abaa678ff0896b9f189317ab5a51d"),
]


@pytest.mark.parametrize("sweep, cache_sha, out_sha", CACHE_SHA256, ids=[c[0] for c in CACHE_SHA256])
def test_the_bench_sweeps_write_the_pinned_cache_bytes(sweep, cache_sha, out_sha, tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    for run in ("cold", "warm"):
        assert cli.main(["search", *sweep.split(), "--cache", str(cache)]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == out_sha, run
        assert captured.err == ""
        assert hashlib.sha256(cache.read_bytes()).hexdigest() == cache_sha, run
