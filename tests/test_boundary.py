import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fucik"
# the Gram layer, and the quadrature rule that only tests import
NUMPY_MODULES = {"gram.py", "quadrature.py"}
# the layers that load on first use of a name of _LAZY, not with the package
LAZY_LAYERS = {"certify", "eigenfunction", "gram"}


def _tree(name):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def defined_names(layer):
    """The names that the top level of fucik.<layer> binds by def, class or assignment."""
    names = set()
    for node in _tree(f"{layer}.py").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


def _imports(tree):
    """(line, top-level?, root packages) of every import; relative ones name none."""
    top = set(map(id, tree.body))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots = {node.module.split(".")[0]} if node.level == 0 else set()
        else:
            continue
        yield node.lineno, id(node) in top, roots


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_imports_are_top_level_and_numpy_stays_in_its_layer(path):
    # parsed rather than grepped, so that a docstring line starting with
    # "from" is not taken for an import
    for line, top_level, roots in _imports(ast.parse(path.read_text(encoding="utf-8"))):
        assert top_level, f"{path.name}:{line} imports inside a block"
        assert "numpy" not in roots or path.name in NUMPY_MODULES, f"{path.name}:{line}"
        # records are namedtuples: dataclasses would load inspect at start-up
        assert "dataclasses" not in roots, f"{path.name}:{line}"
        # the CLI reads its own table: argparse would load gettext and locale
        assert "argparse" not in roots, f"{path.name}:{line}"


def _is_bool_test(node):
    """True for isinstance(x, bool) and isinstance(x, (..., bool, ...))."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
        return False
    kinds = node.args[1] if len(node.args) > 1 else None
    names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(getattr(name, "id", None) == "bool" for name in names)


def _raises_value_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", None) == "ValueError"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_one_module_types_arguments_and_refusals_are_input_errors(path):
    # fucik.spectrum's _index and _real are the one type rule for indices
    # and reals, and every refusal is an InputError, except in the
    # quadrature rule that only tests import
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        assert not _is_bool_test(node) or path.name == "spectrum.py", f"{where} tests for bool"
        assert not _raises_value_error(node) or path.name == "quadrature.py", f"{where} raises ValueError"


def test_the_moment_kernel_is_written_once():
    # sines, cosines and the mean of a profile all come from the one
    # Dirichlet kernel of fucik.eigenfunction._sign_terms, whose phase
    # argument tells them apart, so no module writes a second copy
    kernel = "sin(counts * delta)"
    found = {path.name: path.read_text(encoding="utf-8").count(kernel) for path in PACKAGE.glob("*.py")}
    assert sum(found.values()) == 1 and found["eigenfunction.py"] == 1, found


def _imported_modules(tree):
    """Every dotted name that an import of the module may load, relative ones under fucik."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("fucik" if node.level else None, node.module)))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_lazy_layers_load_only_through_the_table():
    # the package and the CLI reach these layers through _LAZY alone, so that
    # a subcommand loads only the layers it runs
    lazy = {f"fucik.{layer}" for layer in LAZY_LAYERS}
    for name in ("__init__.py", "cli.py"):
        assert not lazy & set(_imported_modules(_tree(name))), name
    table = ast.literal_eval(next(
        node.value
        for node in _tree("__init__.py").body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_LAZY"
    ))
    assert set(table.values()) == LAZY_LAYERS
    for name, layer in table.items():
        assert name in defined_names(layer), (name, layer)
