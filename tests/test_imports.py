"""Modules of the package use only each other's public names."""
import ast
import pathlib
import re

import hamdec

PACKAGE = pathlib.Path(hamdec.__file__).parent


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("hamdec"):
                continue
            offenders += [f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                          for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def _modules():
    """(name, tree) of every package module but ``__init__.py``."""
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"]


def _used_names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | \
           {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_public_name_has_a_user():
    # A public name no module uses and the README does not document is API
    # kept for tests alone.
    used = set()
    for _, tree in _modules():
        used |= _used_names(tree)
        used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    unused = [name for name in hamdec.__all__
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert unused == []


def test_no_unused_imports():
    offenders = []
    for name, tree in _modules():
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            offenders += [f"{name}: {b}" for b in bound if b not in used]
    assert offenders == []


def test_only_model_imports_set_field():
    # The other value types take their fields through ``Value.__init__``.
    offenders = [name for name, tree in _modules() for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and name != "model.py"
                 and any(alias.name == "set_field" for alias in node.names)]
    assert offenders == []
