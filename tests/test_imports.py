"""Modules of the package use only each other's public names."""
import ast
import pathlib

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
