import json
import time

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
