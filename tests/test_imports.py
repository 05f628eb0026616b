"""Modules of the package use only each other's public names."""
import ast
import inspect
import pathlib
import sys
import textwrap

import hamdec
from hamdec import verifier
from hamdec.model import Value

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
    # A public name that neither a package module nor the benchmark harness
    # uses is API kept for tests alone; documenting it does not count as a use.
    bench = [ast.parse(path.read_text(encoding="utf-8"))
             for path in (PACKAGE.parents[1] / "bench").glob("*.py")
             if not path.name.startswith("test_")]
    used = set()
    for tree in [tree for _, tree in _modules()] + bench:
        used |= _used_names(tree)
        used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    unused = [name for name in hamdec.__all__ if name not in used]
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


def _package_helpers(func) -> set[str]:
    """The package functions ``func`` calls, directly or through other package functions.

    A called name is resolved in the namespace of the module that defines the
    caller.  Value types, errors, the stdlib and builtins are not helpers, and
    the walk does not enter them.
    """
    helpers, stack = set(), [func]
    while stack:
        caller = stack.pop()
        namespace = vars(sys.modules[caller.__module__])
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(caller)))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                callee = namespace.get(node.func.id)
            elif (isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
                  and inspect.ismodule(namespace.get(node.func.value.id))):
                callee = getattr(namespace[node.func.value.id], node.func.attr, None)
            else:
                continue  # a method of a value or of a stdlib object
            if (callee is None or not (getattr(callee, "__module__", None) or "").startswith("hamdec")
                    or inspect.isclass(callee) and issubclass(callee, (Value, BaseException))):
                continue
            name = f"{callee.__module__}.{callee.__qualname__}"
            if name not in helpers:
                helpers.add(name)
                stack.append(callee)
    return helpers


def test_exact_verifier_and_window_oracle_share_no_helper():
    # The window oracle is the independent check of the exact verifier, so
    # no package function may serve both.
    exact = _package_helpers(verifier.verify_certificate)
    oracle = _package_helpers(verifier.window_oracle)
    assert "hamdec.admissibility.analyze" in exact
    assert "hamdec.model.materialize_edges" in oracle
    assert exact & oracle == set()
