"""Every name a ``fogpart`` module imports is used in that module.

No linter runs over ``src/``, and a deletion can leave an import behind.
``__init__.py`` is left out: its imports are the package's public names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fogpart

PACKAGE = Path(fogpart.__file__).resolve().parent

#: module file -> the names it imports on purpose without using them
KEPT_UNUSED = {
    # bench/tracing.py wraps placement.response_times by name (ROADMAP item 3)
    "placement.py": {"response_times"},
}


def unused_imports(source: str) -> set[str]:
    """The names bound by ``source``'s imports that no name in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == KEPT_UNUSED.get(module, set())


def test_an_unused_import_is_found():
    source = "import os\nimport sys as system\nfrom math import inf, pi\nprint(os.sep, pi)\n"
    assert unused_imports(source) == {"system", "inf"}
