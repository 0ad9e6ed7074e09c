"""The public names of the package and of its modules resolve, each has a
caller outside the tests, one module writes every file, one module cuts
image stacks into blocks, and the README's exit-code table names real codes
and tests."""

import ast
import importlib
import itertools
import re
from pathlib import Path

import pytest

PRODUCT_MODULES = (
    "analysis", "files", "footprint", "maps", "mnist", "network", "reservoir", "rpso"
)
MODULES_WITH_ALL = ["chaosnet"] + [f"chaosnet.{name}" for name in PRODUCT_MODULES]


@pytest.mark.parametrize("module_name", MODULES_WITH_ALL)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names {missing}"


REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "chaosnet"
# public names no product code calls, each with the reason it stays public
KEPT_WITHOUT_PRODUCT_USE = {
    "footprint.map_parameter_delta": "the paper's comparison with the logistic-map "
    "LogNet, which acceptance criterion 9 reports",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(nodes) -> set[str]:
    """Identifiers read as a Name or an attribute anywhere under ``nodes``;
    import lists, string literals and docstrings do not count."""
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
    return used


def _defines(statement: ast.stmt, name: str) -> bool:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return statement.name == name
    targets = statement.targets if isinstance(statement, ast.Assign) else [
        getattr(statement, "target", None)
    ]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


@pytest.mark.parametrize("module_name", PRODUCT_MODULES)
def test_every_public_name_has_a_product_caller(module_name):
    """A name in ``__all__`` is read by another module of the package, by
    perfbench, or by its own module outside its definition; a name only
    tests read belongs in the tests."""
    module = importlib.import_module(f"chaosnet.{module_name}")
    own = _parse(PACKAGE / f"{module_name}.py")
    others = [PACKAGE.glob("*.py"), (REPO / "perfbench").glob("*.py")]
    elsewhere = _used_names(
        _parse(path) for paths in others for path in paths if path.stem != module_name
    )
    unused = []
    for name in module.__all__:
        if f"{module_name}.{name}" in KEPT_WITHOUT_PRODUCT_USE or name in elsewhere:
            continue
        rest = [s for s in own.body if not _defines(s, name) and not _defines(s, "__all__")]
        if name not in _used_names(rest):
            unused.append(name)
    assert not unused, f"only tests use {module_name}.{unused}; move them into tests/"


# an open mode that writes, appends, creates or updates
WRITE_MODE = re.compile(r"[rbt]*[wax+][rwaxbt+]*")


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` opens a file for writing (``open`` with a w, a, x or
    + mode, ``write_text``, ``write_bytes``) or renames one into place
    (``os.replace``)."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name == "replace":
        return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
    modes = [*call.args[:2], *(kw.value for kw in call.keywords if kw.arg == "mode")]
    return name == "open" and any(
        isinstance(m, ast.Constant) and isinstance(m.value, str) and WRITE_MODE.fullmatch(m.value)
        for m in modes
    )


def test_only_the_writer_writes_files():
    """``files.write_atomic`` writes every file, whole or not at all; no
    other module opens a file for writing."""
    writes = {
        path.stem: [node.lineno for node in ast.walk(_parse(path))
                    if isinstance(node, ast.Call) and _writes(node)]
        for path in PACKAGE.glob("*.py")
    }
    assert writes.pop("files"), "the check no longer recognises the writer itself"
    assert not any(writes.values()), f"files written outside chaosnet.files: {writes}"


def _calls(path: Path, name: str) -> list[int]:
    """The lines of ``path`` that call ``name``, bare or as an attribute."""
    return [node.lineno for node in ast.walk(_parse(path)) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_only_network_cuts_image_stacks_into_blocks():
    """``network`` alone calls ``reservoir.image_chunks``, which ``reservoir``
    defines: one loop cuts every image stack into blocks, and the reservoir
    projects what it is given in one piece."""
    calls = {path.stem: _calls(path, "image_chunks") for path in PACKAGE.glob("*.py")}
    assert calls.pop("network"), "the check no longer recognises network's call"
    assert not any(calls.values()), f"image_chunks called outside chaosnet.network: {calls}"


def _exit_code_table() -> list[list[str]]:
    """The cells of every row of the README's exit-code table."""
    lines = (REPO / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| code | cause | commands | pinned by |") + 2  # past the rule
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    return [[cell.strip() for cell in row.strip("|").split(" | ")] for row in rows]


def test_the_exit_code_table_names_real_codes_and_tests():
    """Each row of the README's exit-code table gives one of ``cli``'s
    ``EXIT_*`` codes, every code has its row, and each test it names exists."""
    from chaosnet import cli

    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    table = _exit_code_table()
    assert sorted(int(code) for code, *_ in table) == sorted(codes)
    missing = []
    for *_, pinned in table:
        for test in re.findall(r"`([^`]+)`", pinned):
            path, name = test.split("::")
            defined = {node.name for node in _parse(REPO / path).body
                       if isinstance(node, ast.FunctionDef)}
            if name not in defined:
                missing.append(test)
    assert not missing, f"the exit-code table names tests that do not exist: {missing}"
