"""Import layering of the lieq modules, checked on their syntax trees.

Each module imports only from modules earlier in LAYERS, so the imports
have no cycle, and every import sits at module level, where it runs once
and shows the dependency.  No module but linalg reads a nullspace basis:
every kernel goes through `SparseSystem.kernel()`.  Only linalg, liealg,
derivations and weights name `Matrix`: everywhere else a derivation is
passed by its sparse row-major entries.
"""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import lieq.derivations as derivations_module

SRC = Path(__file__).resolve().parent.parent / "src" / "lieq"
# The package namespace itself ("lieq", which holds __version__) imports
# nothing, so it is the bottom layer.
LAYERS = ["lieq", "linalg", "liealg", "fileio", "derivations", "constructions", "weights", "cli"]
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def _imported_layers(tree):
    """(line, layer) for every import of a lieq module or of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module == "lieq" or node.module.startswith("lieq."):
                    yield node.lineno, node.module.rpartition(".")[2]
            elif node.module:
                yield node.lineno, node.module.split(".")[0]
            else:  # from . import name: a sibling module or a package attribute
                for alias in node.names:
                    yield node.lineno, alias.name if alias.name in LAYERS else "lieq"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "lieq" or alias.name.startswith("lieq."):
                    yield node.lineno, alias.name.rpartition(".")[2]


def test_every_module_has_a_layer():
    assert set(MODULES) <= set(LAYERS)


def test_package_binds_only_version():
    # a re-export in the package would bind the function `derivations` over
    # the submodule of the same name, so `import lieq.derivations as m`
    # would give the function
    docstring, *statements = _tree("__init__").body
    assert isinstance(docstring, ast.Expr)
    assert len(statements) == 1 and isinstance(statements[0], ast.Assign)
    assert [ast.unparse(t) for t in statements[0].targets] == ["__version__"]
    assert isinstance(derivations_module, ModuleType)


@pytest.mark.parametrize("module", MODULES)
def test_no_function_level_import(module):
    nested = [
        inner.lineno
        for node in ast.walk(_tree(module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert nested == [], f"{module}.py imports inside a function at lines {nested}"


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_earlier_layers(module):
    rank = LAYERS.index(module)
    late = [
        (line, layer)
        for line, layer in _imported_layers(_tree(module))
        if LAYERS.index(layer) >= rank
    ]
    assert late == [], f"{module}.py imports from later layers: {late}"


def _uses(tree, target):
    """Lines that name target: as an attribute, a name or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = [node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)]
        if target in names:
            yield node.lineno


@pytest.mark.parametrize("module", [m for m in MODULES + ["__init__"] if m != "linalg"])
def test_kernels_only_in_linalg(module):
    # every other module takes a kernel through SparseSystem.kernel(), so
    # how a kernel is computed is decided in linalg alone
    uses = sorted(set(_uses(_tree(module), "nullspace_basis")))
    assert uses == [], f"{module}.py reaches for a kernel at lines {uses}"


DENSE = ("linalg", "liealg", "derivations", "weights")


@pytest.mark.parametrize("module", [m for m in MODULES + ["__init__"] if m not in DENSE])
def test_matrix_only_in_dense_layers(module):
    # liealg's ad_matrix, the torus spectra in derivations and theorem 2's
    # images in weights are the dense matrices left
    uses = sorted(set(_uses(_tree(module), "Matrix")))
    assert uses == [], f"{module}.py names Matrix at lines {uses}"
