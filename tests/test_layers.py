"""The package's import layering, read from the source with ``ast``.

The entry model (``model``) and the file module (``files``) sit at the
bottom, on ``errors`` alone; the formats, curation and stats read and write
entries without importing the tables, the script or the realizer.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import lexgram

PACKAGE = Path(lexgram.__file__).parent

# Bottom to top: a module imports only modules before it.
ORDER = (
    "errors", "model", "files", "tables", "script", "realizer", "lexicon",
    "curation", "stats", "formats", "expansion", "cli", "__init__",
)

# module -> (the lexgram modules it may import, whether it must import all of them)
ALLOWED = {
    "errors": (set(), True),
    "model": ({"errors"}, True),
    "files": ({"errors"}, True),
    "formats": ({"errors", "model", "files"}, True),
    "curation": ({"model"}, True),
    "stats": ({"errors", "model"}, True),
    "tables": ({"errors", "model", "files"}, False),
    "script": ({"errors", "model", "tables", "files"}, False),
    "realizer": ({"errors", "model", "script", "files"}, False),
}


def lexgram_imports(module: str) -> set[str]:
    """The package modules ``module`` names in a ``from .x import`` line."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_every_module_has_a_place_in_the_order():
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted(ORDER)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_what_its_layer_allows(module):
    allowed, exact = ALLOWED[module]
    imports = lexgram_imports(module)
    if exact:
        assert imports == allowed
    else:
        assert imports <= allowed


@pytest.mark.parametrize("module", ORDER)
def test_module_imports_only_modules_below_it(module):
    below = set(ORDER[:ORDER.index(module)])
    assert lexgram_imports(module) <= below


def test_issues_module_is_gone():
    assert not (PACKAGE / "issues.py").exists()


def test_every_public_name_resolves():
    for name in lexgram.__all__:
        assert getattr(lexgram, name) is not None, name
