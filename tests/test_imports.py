"""Static checks of the package's imports and exports: the source is parsed,
not imported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dpalarm"
# __init__.py is left out: its imports are the package's exports
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _all(tree: ast.Module) -> set[str]:
    """The module's ``__all__`` list, empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module) -> set[str]:
    """Every name an import statement binds, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used - _all(tree)) == []


def test_package_exports_are_in_their_modules_all():
    missing = []
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = _all(_tree(PACKAGE / f"{node.module}.py"))
            missing += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in exported]
    assert missing == []


def _bound(body: list[ast.stmt]) -> dict[str, ast.stmt]:
    """Names a module or class body binds at its top level, to their statement."""
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, ast.Assign):
            names.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name, node) for alias in node.names)
    return names


def test_benchmark_traced_names_exist():
    # the tracer skips a name it cannot find, which blinds its per-layer
    # metric; read its table from source, as the benchmark is not imported here
    tracing = _tree(PACKAGE.parents[1] / "perfbench" / "tracing.py")
    table = next(
        node.value for node in tracing.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    targets = [tuple(elt.value for elt in value.elts[:2]) for value in table.values]
    assert ("dpalarm.protocol", "UtilitySession.process_epoch") in targets
    missing = []
    for module, attr in targets:
        package, _, name = module.partition(".")
        node = _tree(PACKAGE / f"{name}.py") if package == "dpalarm" else None
        for part in attr.split("."):
            node = _bound(getattr(node, "body", [])).get(part)
        if node is None:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_eigendecompositions_only_in_stats():
    # one covariance rule: stats._checked_eigh is where a matrix is checked
    # and eigendecomposed, so no other module calls an eig, eigh or eigvalsh
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "stats.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("eig", "eigh", "eigvalsh"):
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []
