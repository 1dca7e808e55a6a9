"""The operator plane (``repro.ops``) is a leaf of the package, and the
query engine (``repro.engine``) sits below the API.

The Section 4 operators are measured standalone: each one is a kernel over
arrays, priced by the hardware simulators.  They may reach the simulators,
the hardware specs and the Crystal primitives, and nothing of the query
engine, the SSB workload or the storage layer above them.

The engines price one functional pass over the storage layer; the
``Session`` facade of ``repro.api`` drives them, never the other way round.

Bit-packed compression (Section 5.5) is a bandwidth model for the ablation
bench, not part of the data plane: the engine and the shared-memory plane
read plain columns, so neither imports ``repro.storage.compression``.
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


#: Modules of the data plane, which must read plain columns.
DATA_PLANE = ("repro.engine", "repro.storage.shm")
COMPRESSION = "repro.storage.compression"


@pytest.mark.parametrize("name", DATA_PLANE)
def test_data_plane_never_imports_compression(name):
    origin = Path(importlib.import_module(name).__file__)
    paths = sorted(origin.parent.rglob("*.py")) if origin.name == "__init__.py" else [origin]
    # What ``repro.storage`` could re-export of it: its own top-level names.
    source = Path(importlib.import_module(COMPRESSION).__file__).read_text()
    exported = {"compression"} | {
        getattr(node, "name", None) or node.targets[0].id
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        or (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name))
    }
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import) and any(alias.name == COMPRESSION for alias in node.names))
        or (
            isinstance(node, ast.ImportFrom)
            and node.module is not None
            and (
                node.module == COMPRESSION
                or (node.module == "repro.storage" and any(alias.name in exported for alias in node.names))
            )
        )
    ]
    assert not offenders, f"{name} imports compression:\n" + "\n".join(offenders)
