"""The package's import graph: which module may import which, and that every
name, in the package and in its tests, is imported (or, in the tests, read as
``module.name``) from the module that defines it."""

import ast
from pathlib import Path

import bearingsound

PACKAGE_DIR = Path(bearingsound.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in PACKAGE_DIR.glob("*.py")}
TESTS = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in Path(__file__).parent.glob("*.py")}

_BELOW_EXPERIMENTS = {"errors", "common", "audiofile", "dsp", "mlp", "dataset",
                      "metrics"}
# The generator stands in for a measurement campaign, so only the front end
# imports it.
ALLOWED = {
    "__init__": set(),
    "errors": set(),
    "common": {"errors"},
    "audiofile": {"errors"},
    "dsp": {"errors"},
    "synth": {"audiofile", "common", "errors"},
    "mlp": {"common", "errors"},
    "dataset": {"audiofile", "common", "dsp", "errors"},
    "metrics": {"common", "dataset", "errors"},
    "experiments": _BELOW_EXPERIMENTS,
    "cli": _BELOW_EXPERIMENTS | {"experiments", "synth"},
}


def _package_imports(tree):
    """(module, name or None) for each package-relative import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    yield alias.name, None
                else:
                    yield node.module, alias.name


def _absolute_imports(tree):
    """(module, name or None) for each ``from bearingsound[.module] import
    name`` in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            package, _, module = (node.module or "").partition(".")
            if package == "bearingsound":
                for alias in node.names:
                    yield (module, alias.name) if module else (alias.name, None)


def _attribute_uses(tree):
    """(module, name) for each ``module.name`` in tree whose ``module`` was
    bound by ``from bearingsound import module [as alias]``."""
    aliases = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module == "bearingsound"):
            aliases.update((alias.asname or alias.name, alias.name)
                           for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield aliases[node.value.id], node.attr


def _defined_names(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_no_absolute_imports_of_the_package():
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue
            assert not any(name.split(".")[0] == "bearingsound"
                           for name in imported), module


def test_import_edges_match_the_layers():
    edges = {module: {target for target, _ in _package_imports(tree)}
             for module, tree in MODULES.items()}
    assert edges == ALLOWED


def _assert_imported_from_definition(sources, imports):
    defined = {module: _defined_names(tree) for module, tree in MODULES.items()}
    for source, tree in sources.items():
        for target, name in imports(tree):
            if name is None:
                assert target in MODULES, f"{source}: no module {target}"
            else:
                assert name in defined.get(target, ()), (
                    f"{source} takes {name} from {target}, which does not "
                    "define it")


def test_each_name_comes_from_the_module_that_defines_it():
    _assert_imported_from_definition(MODULES, _package_imports)


def test_tests_take_each_name_from_the_module_that_defines_it():
    _assert_imported_from_definition(TESTS, _absolute_imports)


def test_tests_read_each_attribute_from_the_module_that_defines_it():
    _assert_imported_from_definition(TESTS, _attribute_uses)
