import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leinster
from leinster import families, numtheory, oracle, search, verify

SUBMODULES = (families, numtheory, oracle, search, verify)


def test_every_public_name_is_its_submodules_object():
    listed = set(dir(leinster))
    for name in leinster.__all__:
        value = getattr(leinster, name)
        homes = [module for module in SUBMODULES if name in vars(module)]
        assert homes, name
        assert all(getattr(module, name) is value for module in homes), name
        assert name in listed, name


@pytest.mark.parametrize("module", SUBMODULES, ids=lambda module: module.__name__)
def test_every_name_a_submodule_exports_is_defined_there(module):
    missing = [name for name in module.__all__ if name not in vars(module)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_lazy_name_is_exported_by_its_module():
    homes = {"oracle": oracle, "verify": verify}
    assert set(leinster._LAZY) == set(homes)
    for module_name, names in leinster._LAZY.items():
        missing = set(names) - set(homes[module_name].__all__)
        assert not missing, module_name


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from leinster import *", namespace)
    assert set(leinster.__all__) <= set(namespace)
    assert namespace["run_verify"] is verify.run_verify


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        leinster.no_such_name  # noqa: B018


def test_importing_the_cli_loads_no_numpy_and_the_lazy_names_resolve():
    # `leinster.oracle` and `leinster.verify` must resolve after `import
    # leinster.cli` alone: the bench tracer reads them so
    script = """
import sys
import leinster.cli
assert "numpy" not in sys.modules and "leinster.oracle" not in sys.modules
assert "leinster.verify" not in sys.modules
import leinster
assert {"oracle", "verify", "build_zm", "run_verify"} <= set(dir(leinster))
assert "numpy" not in sys.modules
assert leinster.oracle.__name__ == "leinster.oracle" and "numpy" in sys.modules
assert leinster.verify.__name__ == "leinster.verify"
assert leinster.build_zm is leinster.oracle.build_zm
assert leinster.group_divisor_sum(leinster.build_zm(7, 6, 3)) == 85
"""
    src = str(Path(leinster.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_every_public_name_has_a_caller_in_the_package():
    # a public name that only tests read is dead weight: delete it or use it
    package = Path(leinster.__file__).resolve().parent
    read: set[str] = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    for module in SUBMODULES:
        unread = [name for name in module.__all__ if name not in read]
        assert not unread, module.__name__


def test_the_readme_library_example_gives_what_its_comments_state():
    t = leinster.zm_validate(7, 6, 3)
    assert leinster.zm_divisor_sum(t) == 85
    assert [lt.subgroup_order for lt in leinster.zm_normal_triples(t)] == [42, 21, 14, 7, 1]

    g = leinster.build_zm(7, 6, 3)
    assert g.order == 42
    assert leinster.group_divisor_sum(g) == 85
    assert len(leinster.all_subgroups(g)) == 26 == len(leinster.zm_subgroup_triples(t))

    assert leinster.classify_kind(24, 12) is leinster.GroupKind.LEINSTER
    assert leinster.factorize(728) == ((2, 3), (7, 1), (13, 1))
    rows = leinster.perfect_plus_one(8)
    assert rows[:3] == [(1, 6, 7), (2, 28, 29), (3, 496, None)]
    assert [i for i, _, _ in rows] == list(range(1, 9))
    assert rows[-1][2] is None
    for _, perfect, p in rows:
        assert p is None or p == perfect + 1
        assert (p is None) != leinster.is_prime(perfect + 1)
