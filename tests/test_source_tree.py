"""What a simplification can leave behind in ``src/pdgsbr``: an import whose
last use went, or a private helper whose last caller went; and an ``open``
that would read or write in the locale's encoding."""

import ast
from pathlib import Path

import pdgsbr

PACKAGE = Path(pdgsbr.__file__).parent
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def referenced(tree, skip=frozenset()) -> set:
    """Every name a Name or an Attribute node of ``tree`` refers to, but for the nodes ``skip``."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skip}


def test_every_import_is_used():
    found = []
    for name, tree in TREES.items():
        used = referenced(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        found.append(f"{name}:{node.lineno} {bound}")
    assert found == []


def test_every_private_function_has_a_caller():
    found = []
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not (
                    node.name.startswith("__")):
                own = {id(inner) for inner in ast.walk(node)}
                if not any(node.name in referenced(other, own) for other in TREES.values()):
                    found.append(f"{name}:{node.lineno} {node.name}")
    assert found == []


def test_every_open_names_its_encoding():
    # without one, a file is read in the locale's encoding: under an ASCII locale a
    # valid UTF-8 config was once refused
    found = [f"{name}:{node.lineno}" for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
             and not any(k.arg == "encoding" for k in node.keywords)]
    assert found == []
