"""No hbvkit module imports or reads another module's private names.

A private name starts with one underscore (dunders such as ``__all__`` are
public). The check walks the syntax tree of each module under
``src/hbvkit``: ``from .x import _y`` and a read ``x._y`` through a bound
hbvkit module both break the rule, since the helper they reach is then
known to two modules.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hbvkit"
MODULES = sorted(SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "hbvkit"


def violations(source: str, filename: str = "<src>") -> list[str]:
    """Each private-name import or read of another hbvkit module in ``source``."""
    tree = ast.parse(source, filename)
    found = []
    modules = set()  # local names bound to hbvkit modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_import(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{filename}:{node.lineno}: imports {alias.name}")
                # `from . import x` and `from hbvkit import x` bind modules
                if node.module in (None, "hbvkit"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hbvkit":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{filename}:{node.lineno}: reads {ast.unparse(node)}")
    return found


def test_the_check_sees_both_forms():
    source = (
        "from . import equilibria as eq\n"
        "from .model import _interp, vector_field\n"
        "import hbvkit.integrate\n"
        "eq._damped_newton\n"
        "hbvkit.integrate._Recorder\n"
        "eq.endemic, eq.__all__, self._seen\n"
    )
    assert violations(source) == [
        "<src>:2: imports _interp",
        "<src>:4: reads eq._damped_newton",
        "<src>:5: reads hbvkit.integrate._Recorder",
    ]


def test_sources_were_found():
    assert {p.name for p in MODULES} >= {"cli.py", "equilibria.py", "integrate.py", "scenarios.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reaches_into_another_modules_private_names(path):
    assert violations(path.read_text(encoding="utf-8"), path.name) == []
