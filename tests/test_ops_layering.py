"""The operator plane (``repro.ops``) is a leaf of the package.

The Section 4 operators are measured standalone: each one is a kernel over
arrays, priced by the hardware simulators.  They may reach the simulators,
the hardware specs and the Crystal primitives, and nothing of the query
engine, the SSB workload or the storage layer above them.
"""

import ast
from pathlib import Path

import repro.ops

ALLOWED = ("repro.ops", "repro.sim", "repro.hardware", "repro.crystal")


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


def test_ops_imports_only_lower_layers():
    root = Path(repro.ops.__file__).parent
    paths = sorted(root.rglob("*.py"))
    assert paths
    offenders = [
        f"{path.relative_to(root.parent)}:{lineno}: {module}"
        for path in paths
        for lineno, module in _repro_imports(path)
        if not any(module == allowed or module.startswith(allowed + ".") for allowed in ALLOWED)
    ]
    assert not offenders, "repro.ops reaches above its layer:\n" + "\n".join(offenders)
