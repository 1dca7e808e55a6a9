"""The operator plane (``repro.ops``) is a leaf of the package, and the
query engine (``repro.engine``) sits below the API.

The Section 4 operators are measured standalone: each one is a kernel over
arrays, priced by the hardware simulators.  They may reach the simulators,
the hardware specs and the Crystal primitives, and nothing of the query
engine, the SSB workload or the storage layer above them.

The engines price one functional pass over the storage layer; the
``Session`` facade of ``repro.api`` drives them, never the other way round.
"""

import ast
import importlib
from pathlib import Path

import pytest

#: Package -> the ``repro`` packages its modules may import.
ALLOWED = {
    "repro.ops": ("repro.ops", "repro.sim", "repro.hardware", "repro.crystal"),
    "repro.engine": (
        "repro.engine",
        "repro.context",
        "repro.faults",
        "repro.hardware",
        "repro.sim",
        "repro.ssb",
        "repro.storage",
    ),
}


def _repro_imports(path: Path):
    """Every ``repro.*`` module ``path`` imports, with its line number."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module]
            if node.module == "repro":
                modules = [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            if module.split(".")[0] == "repro":
                yield node.lineno, module


@pytest.mark.parametrize("package", sorted(ALLOWED))
def test_package_imports_only_lower_layers(package):
    root = Path(importlib.import_module(package).__file__).parent
    allowed = ALLOWED[package]
    paths = sorted(root.rglob("*.py"))
    assert paths
    offenders = [
        f"{path.relative_to(root.parent)}:{lineno}: {module}"
        for path in paths
        for lineno, module in _repro_imports(path)
        if not any(module == layer or module.startswith(layer + ".") for layer in allowed)
    ]
    assert not offenders, f"{package} reaches above its layer:\n" + "\n".join(offenders)
