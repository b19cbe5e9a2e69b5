import json
import os
import subprocess
import sys
import time
from pathlib import Path

import leinster
from leinster import cli


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


def test_classify_gen_dihedral_zero_factor_is_a_domain_error(capsys):
    code = cli.main(["classify", "--family", "gen-dihedral", "--params", "2,0"])
    assert code == cli.EXIT_DOMAIN
    assert "domain error" in capsys.readouterr().err


def test_gen_dihedral_sweep_counts_chains_for_the_budget(capsys):
    argv = ["search", "gen-dihedral", "--max-a", "3200"]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 6965
    assert cli.main(argv + ["--budget", "6964"]) == cli.EXIT_RESOURCE
    assert "over the budget of 6964" in capsys.readouterr().err
    assert cli.main(argv + ["--budget", "6965"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 6965


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


def test_broken_pipe_in_process_maps_to_141(monkeypatch, capsys):
    def closed(args):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "_cmd_search", closed)
    assert cli.main(["search", "cyclic", "--max-n", "5"]) == cli.EXIT_BROKEN_PIPE
    assert capsys.readouterr().err == ""
