"""The cross-verification suite as pytest items, one per check, and the
package's export lists."""

import importlib
import pkgutil

import pytest

import dirtycast
from dirtycast import verify


@pytest.mark.parametrize("name, check", verify.CHECKS, ids=[n for n, _ in verify.CHECKS])
def test_check(name, check):
    check()


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
