"""The cross-verification suite as pytest items, one per check, and the
package's export lists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dirtycast
from dirtycast import cli, verify


@pytest.mark.parametrize("name, check", verify.CHECKS, ids=[n for n, _ in verify.CHECKS])
def test_check(name, check):
    check()


def test_a_crashing_check_fails(monkeypatch):
    def crash():
        raise ValueError("boom")

    monkeypatch.setattr(verify, "CHECKS", (("crash", crash),))
    [result] = verify.run_checks()
    assert not result.passed and "boom" in result.detail
    assert cli.main(["verify"]) == 1


def test_unknown_check_names_are_rejected():
    assert [r.name for r in verify.run_checks(["entropy-basics"])] == ["entropy-basics"]
    with pytest.raises(ValueError, match="gaussian-ordring"):
        verify.run_checks(["gaussian-ordring", "entropy-basics"])


MODULES = ["dirtycast"] + [f"dirtycast.{m.name}" for m in pkgutil.iter_modules(dirtycast.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def _names_used_by_the_package():
    used = set()
    for path in Path(dirtycast.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_used_by_the_package(module):
    # an export that no module reads or assigns is public API kept only for tests
    mod = importlib.import_module(module)
    unused = set(getattr(mod, "__all__", ())) - _names_used_by_the_package()
    assert not unused, f"{module}.__all__ names nothing in the package uses: {sorted(unused)}"

TEST_FILES = {p.name: p for p in sorted(Path(__file__).parent.glob("test_*.py"))}


@pytest.mark.parametrize("source", MODULES + list(TEST_FILES))
def test_every_import_is_read(source):
    # an imported name that the file never reads and does not export is a leftover
    if source in TEST_FILES:
        path, exported = TEST_FILES[source], set()
    else:
        mod = importlib.import_module(source)
        path, exported = Path(mod.__file__), set(getattr(mod, "__all__", ()))
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = imported - read - exported
    assert not unread, f"{source} imports names it never reads: {sorted(unread)}"
