"""The cross-verification suite as pytest items, one per check, the claim
table that maps the paper's abstract onto the checks, and the package's
export lists."""

import ast
import importlib
import math
import pkgutil
import time
from pathlib import Path

import numpy as np
import pytest

import dirtycast
from dirtycast import binary, cli, gaussian, verify


ROOT = Path(__file__).parent.parent
# the wall time a check must stay within, in seconds, where it has a budget
BUDGET_S = {"binary-binning-rate": 1.0, "scheme-mi-estimate": 5.0}


@pytest.mark.parametrize("name, check", verify.CHECKS, ids=[n for n, _ in verify.CHECKS])
def test_check(name, check):
    start = time.perf_counter()
    check()
    assert time.perf_counter() - start < BUDGET_S.get(name, math.inf)


def test_each_claim_is_quoted_and_checked():
    paper = (ROOT / "PAPER.md").read_text(encoding="utf-8")
    assert [text for text, _ in verify.CLAIMS if text not in paper] == []
    assert [text for text, checks in verify.CLAIMS if not checks] == []
    backed = {name for _, checks in verify.CLAIMS for name in checks}
    names = {name for name, _ in verify.CHECKS}
    assert backed - names == set()  # a name that is not a check
    assert names - backed == set()  # a check that backs no claim


def claim_list():
    """README's claim list, rendered from verify.CLAIMS."""
    return "".join(f'{i}. "{text}"\n   Checks: {", ".join(f"`{name}`" for name in checks)}.\n'
                   for i, (text, checks) in enumerate(verify.CLAIMS, 1))


def test_readme_lists_the_claims():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start, end = "<!-- claims: rendered from verify.CLAIMS -->\n", "<!-- /claims -->"
    block = readme[readme.index(start) + len(start):readme.index(end)]
    assert block == claim_list(), "README's claim list differs; paste in:\n" + claim_list()


def test_a_crashing_check_fails(monkeypatch):
    def crash():
        raise ValueError("boom")

    monkeypatch.setattr(verify, "CHECKS", (("crash", crash),))
    [result] = verify.run_checks()
    assert not result.passed and "boom" in result.detail
    assert cli.main(["verify"]) == 1


@pytest.mark.parametrize("name, most", [
    ("rho-map-upper-i", 1),
    ("rho-map-upper-ii", 1),
    ("gaussian-lower-vs-grid", 1),
    ("gaussian-upper-vs-rho-min", 3),
])
def test_optimizer_checks_minimize_once_per_grid(monkeypatch, name, most):
    # each optimizer call covers a whole (P, Q) grid, not one Q per call
    minimize, calls = gaussian.minimize_scalar, []

    def counting(f, domain):
        calls.append(domain)
        return minimize(f, domain)

    monkeypatch.setattr(gaussian, "minimize_scalar", counting)
    [result] = verify.run_checks([name])
    assert result.passed, result.detail
    assert 1 <= len(calls) <= most


@pytest.mark.parametrize("name, calls", [
    ("rho-map-upper-i", 1),
    ("rho-map-upper-ii", 1),
    ("gaussian-lower-vs-grid", 1),
    ("gaussian-upper-vs-rho-min", 3),
    ("power-split-20x21", 1),
])
def test_optimizer_minima_are_at_most_the_dense_grid_minima(monkeypatch, name, calls):
    # every minimum the optimizer checks take, and the power split's on
    # verify's 20x21 grid, is at most the least value of its objective on a
    # 2001-point grid of the domain: 65 first points miss no basin there
    minimize, excess = gaussian.minimize_scalar, []

    def against_the_grid(f, domain):
        x, v = minimize(f, domain)
        excess.append(float(np.max(v - f(np.linspace(*domain, 2001)).min(-1))))
        return x, v

    monkeypatch.setattr(gaussian, "minimize_scalar", against_the_grid)
    if name == "power-split-20x21":
        gaussian.maximize_power_split(np.array(verify.P_GRID)[:, None],
                                      np.array(verify.Q_GRID_LINEAR))
    else:
        [result] = verify.run_checks([name])
        assert result.passed, result.detail
    assert len(excess) == calls and all(e <= 0.0 for e in excess), excess


@pytest.mark.parametrize("name, ks", [
    ("binary-bounds-ordered", range(2, 11)),
    ("binary-entropy-sandwich", range(2, 11)),
    ("binary-large-k-limit", [2, 3, 10, 64, 1000]),
    ("binary-weight-enumeration", [2, 3, 5, 8, 12]),
])
def test_binary_checks_sweep_q_once_per_k(monkeypatch, name, ks):
    # each K's q grid is one array call, not one call per q
    joint, calls = binary.joint_xor_entropy, []

    def counting(k, q):
        calls.append(k)
        return joint(k, q)

    monkeypatch.setattr(binary, "joint_xor_entropy", counting)
    [result] = verify.run_checks([name])
    assert result.passed, result.detail
    assert calls == list(ks)


def test_entropy_symmetry_is_one_sweep(monkeypatch):
    entropy, calls = verify.binary_entropy, []
    monkeypatch.setattr(verify, "binary_entropy", lambda q: calls.append(q) or entropy(q))
    [result] = verify.run_checks(["entropy-basics"])
    assert result.passed, result.detail
    assert len(calls) == 5  # H(1/2), H(0), H(1), and the q and 1 - q sweeps


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
    # an export, or a public module-level function or class, that no module reads
    # or assigns is public API kept only for tests
    mod = importlib.import_module(module)
    tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
    public = set(getattr(mod, "__all__", ())) | {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    unused = public - _names_used_by_the_package()
    assert not unused, f"{module} has public names nothing in the package uses: {sorted(unused)}"

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
