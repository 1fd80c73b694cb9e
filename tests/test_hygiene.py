"""Every name a package or test module imports is used in it or re-exported,
every top-level function and class of the package is used by the package,
and no package module reads the environment.

No linter ships with the project, so this parses each module: an import
that nothing reads, and that the module's ``__all__`` does not list, is
dead code, and so is a package function or class that only tests call.
Settings come from the config file and ``--set`` alone, so an environment
variable read by the package would be a hidden setting.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dartclean"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(imported_names(tree)) - used - exported_names(tree)
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def read_names(node):
    """Names ``node`` reads: each ``Name`` load and each ``Attribute``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_used_by_the_package(path):
    statements = [(module, node, read_names(node)) for module in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(module.read_text()).body]
    unused = []
    for module, node, _ in statements:
        if module == path and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            # a reference from inside the definition's own body does not count
            if not any(node.name in names for _, other, names in statements
                       if other is not node):
                unused.append(node.name)
    assert not unused, f"no package code outside its own body uses {path.name}'s {unused}"


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_package_module_reads_the_environment(path):
    tree = ast.parse(path.read_text())
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= set(imported_names(tree))
    assert not used & ENVIRONMENT_READERS, f"{path.name} reads the environment"
