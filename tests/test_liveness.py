"""Every public name in ``src/repro`` has a caller or a reason.

A name that only tests reach reproduces nothing, so one AST pass over
``src/``, ``examples/`` and ``benchmarks/`` checks two kinds of name:

* every public top-level function and class of ``src/repro``, and every
  public method or property of a public class;
* every defaulted keyword of a public class's ``__init__`` and public
  classmethods and of a kernel in ``repro.ops.cpu``/``gpu`` ``__all__``,
  plus the fields of the option dataclasses (``ResiliencePolicy``,
  ``DurabilityConfig``).

A name is live when a caller file refers to it outside its own definition:
an ``ast.Name`` or ``ast.Attribute`` for a definition, a ``name=`` keyword
(or a positional argument) of a call to its class or kernel for a keyword,
and of a call through its class (``Table.from_arrays(...)``) for a
classmethod's keyword.
Imports, and so ``__init__.py`` re-exports, and ``__all__`` strings are no
references.  A kernel in ``repro.ops.cpu``/``gpu`` ``__all__`` is a
standalone Section 4 operator, so only callers outside ``repro.ops`` count
for its name; a kernel that passes another kernel's keyword is its caller.
The scan matches by name, not by type (Python gives an AST no types), so a
name that is also read off another object -- ``itemsize`` of every NumPy
``dtype`` -- looks live whoever defines it; such a name needs a hand check.

A name without a caller needs a row in README § Public surface (or, for an
option, § Configuration) that says why it stays; every row must name
something the scan finds, so a row cannot outlive its name.
"""

import ast
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Dataclasses whose fields are options a caller sets by keyword.
OPTION_DATACLASSES = ("ResiliencePolicy", "DurabilityConfig")
#: README sections whose table rows give a name its reason to stay.
REASON_SECTIONS = ("Public surface", "Configuration")
#: The operator plane, and its packages of standalone kernels, relative to
#: the scanned package: a kernel needs a caller outside the plane.
OPERATOR_PLANE = "ops"
KERNEL_PACKAGES = ("ops/cpu", "ops/gpu")


def _public(name):
    return not name.startswith("_")


def _is_accessor(node):
    """``@x.setter`` / ``@x.deleter``: the second definition of a property."""
    return any(
        isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter")
        for decorator in node.decorator_list
    )


def _is_classmethod(node):
    return any(getattr(decorator, "id", None) == "classmethod" for decorator in node.decorator_list)


def _defaulted(arguments, skip):
    """``(keyword, position)`` of each defaulted parameter in ``arguments``.

    The first ``skip`` positional parameters (``self``) take no position a
    caller fills; a keyword-only parameter has none.
    """
    positional = arguments.posonlyargs + arguments.args
    defaulted = positional[len(positional) - len(arguments.defaults):]
    found = [(arg.arg, positional.index(arg) - skip) for arg in defaulted]
    found += [
        (arg.arg, None)
        for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]
    return found


def _definitions(path, tree, kernels):
    """``(label, kind, key, span)`` of each public name ``tree`` defines.

    ``kind`` is ``"name"`` (looked up by ``key``, a bare name) or
    ``"option"`` (``key`` is ``(class or kernel, keyword, position)``).
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)) or not _public(node.name):
            continue
        span = (path, node.lineno, node.end_lineno)
        yield node.name, "name", node.name, span
        if not isinstance(node, ast.ClassDef):
            if node.name in kernels:
                for keyword, position in _defaulted(node.args, 0):
                    yield f"{node.name}({keyword}=)", "option", (node.name, keyword, position), span
            continue
        if node.name in OPTION_DATACLASSES:
            fields = [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
            for position, field in enumerate(fields):
                yield f"{node.name}({field}=)", "option", (node.name, field, position), span
        # A property's span runs to its last accessor, so the
        # ``@name.setter`` decorator is no caller of ``name``.
        ends = {item.name: item.end_lineno for item in node.body if isinstance(item, functions)}
        for item in node.body:
            if not isinstance(item, functions):
                continue
            if item.name == "__init__":
                for keyword, position in _defaulted(item.args, 1):
                    key = (node.name, keyword, position)
                    yield f"{node.name}({keyword}=)", "option", key, span
            elif _public(item.name) and not _is_accessor(item):
                item_span = (path, item.lineno, ends[item.name])
                yield f"{node.name}.{item.name}", "name", item.name, item_span
                if _is_classmethod(item):
                    label = f"{node.name}.{item.name}"
                    for keyword, position in _defaulted(item.args, 1):
                        yield f"{label}({keyword}=)", "option", (label, keyword, position), span


def _references(path, tree, names, options):
    """Record each reference in ``tree``: bare names and call arguments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.setdefault(node.id, []).append((path, node.lineno))
        elif isinstance(node, ast.Attribute):
            names.setdefault(node.attr, []).append((path, node.lineno))
        elif isinstance(node, ast.Call):
            func = node.func
            # ``Session(...)`` and ``module.Session(...)`` pass keywords and
            # positions; a constructor method, ``Session.open(...)``, passes
            # its keywords on.
            callees = {getattr(func, "id", None), getattr(func, "attr", None)} - {None}
            arguments = [keyword.arg for keyword in node.keywords]
            for position, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                arguments.append(position)
            passed = [(callee, argument) for callee in callees for argument in arguments]
            if isinstance(func, ast.Attribute):
                owner = getattr(func.value, "id", getattr(func.value, "attr", None))
                passed += [(owner, keyword.arg) for keyword in node.keywords]
                # ``Table.from_arrays(...)`` passes its arguments to that
                # classmethod, not to every method called ``from_arrays``.
                passed += [(f"{owner}.{func.attr}", argument) for argument in arguments]
            for key in passed:
                options.setdefault(key, []).append((path, node.lineno))


def _kernels(package):
    """The names in each kernel package's ``__all__``."""
    kernels = set()
    for relative in KERNEL_PACKAGES:
        init = package / relative / "__init__.py"
        if not init.exists():
            continue
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                kernels.update(ast.literal_eval(node.value))
    return kernels


def readme_rows(readme):
    """Every backquoted name in the first cell of a reason section's table."""
    text = readme.read_text()
    rows = set()
    for section in REASON_SECTIONS:
        body = text.partition(f"\n## {section}\n")[2].partition("\n## ")[0]
        for line in body.splitlines():
            cells = line.split("|")
            if line.startswith("| ") and len(cells) > 2:
                rows.update(re.findall(r"`([^`]+)`", cells[1]))
    return rows


def dead_names(package, callers, readme):
    """``(unexplained, stale_rows)`` for ``package`` and its ``callers``.

    ``unexplained`` lists ``path:line: label`` for each public name with
    neither a caller in ``callers`` (directories) outside its definition nor
    a README row; ``stale_rows`` lists rows that name nothing defined.
    """
    package = Path(package)
    kernels = _kernels(package)
    names, options, definitions = {}, {}, []
    for directory in callers:
        for path in sorted(Path(directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if path.is_relative_to(package):
                definitions.extend(_definitions(path, tree, kernels))
            _references(path, tree, names, options)

    plane = package / OPERATOR_PLANE

    def counts(reference, span, kernel):
        path, line = reference
        if kernel and path.is_relative_to(plane):
            return False
        return not (path == span[0] and span[1] <= line <= span[2])

    rows = readme_rows(readme)
    unexplained = []
    for label, kind, key, span in definitions:
        if label in rows:
            continue
        if kind == "name":
            references = names.get(key, ())
        else:
            owner, keyword, position = key
            references = options.get((owner, keyword), [])
            if position is not None:
                references = references + options.get((owner, position), [])
        kernel = kind == "name" and "." not in label and key in kernels
        if not any(counts(reference, span, kernel) for reference in references):
            unexplained.append(f"{span[0].relative_to(package.parent)}:{span[1]}: {label}")
    defined = {label for label, *_ in definitions}
    stale = sorted(rows - defined)
    return unexplained, stale


def test_every_public_name_has_a_caller_or_a_reason():
    unexplained, stale = dead_names(
        ROOT / "src" / "repro",
        [ROOT / "src", ROOT / "examples", ROOT / "benchmarks"],
        ROOT / "README.md",
    )
    assert not unexplained, (
        f"{len(unexplained)} public names have no caller in src/, examples/ or benchmarks/ "
        "and no row in README § Public surface: delete each, or give it a row that says "
        "why it stays:\n" + "\n".join(unexplained)
    )
    assert not stale, "README rows name nothing in src/repro:\n" + "\n".join(stale)


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def test_scanner_flags_only_what_has_no_caller_and_no_row(tmp_path):
    """The scan itself, on a synthetic package with one of each case."""
    src, examples = tmp_path / "src", tmp_path / "examples"
    _write(src, {
        "pkg/__init__.py": """
            from pkg.core import Engine, helper, unused_function
            __all__ = ["Engine", "helper", "unused_function"]
        """,
        "pkg/core.py": """
            class Engine:
                def __init__(self, db, *, cache=True, spare=None):
                    self.db = db

                def run(self):
                    return self.step()

                def step(self):
                    return self.db

                def orphan(self):
                    return self.orphan()

                def documented(self):
                    return None


            def helper():
                return Engine(1, cache=False).run()


            def unused_function():
                return unused_function
        """,
        "pkg/ops/__init__.py": "",
        "pkg/ops/cpu/__init__.py": """
            from pkg.ops.cpu.kernels import inner_kernel, outer_kernel
            __all__ = ["inner_kernel", "outer_kernel"]
        """,
        "pkg/ops/cpu/kernels.py": """
            def inner_kernel(rows=1):
                return rows


            def outer_kernel(rows, variant="a", width=4, spare=None):
                if spare is not None:
                    return outer_kernel(rows, spare=None)
                return inner_kernel(rows=rows)
        """,
    })
    _write(examples, {"demo.py": """
        from pkg import helper
        from pkg.ops.cpu import outer_kernel
        helper()
        outer_kernel(2, "b", width=8)
    """})
    readme = tmp_path / "README.md"
    readme.write_text(
        "# pkg\n\n## Public surface\n\n| name | why it stays |\n|---|---|\n"
        "| `Engine.documented` | a reason |\n| `Engine.deleted` | a stale reason |\n"
        "\n## Next\n"
    )
    unexplained, stale = dead_names(src / "pkg", [src, examples], readme)
    assert {entry.rsplit(": ", 1)[1] for entry in unexplained} == {
        "Engine.orphan",  # a self-reference is no caller
        "Engine(spare=)",  # a keyword no call passes
        "unused_function",  # an __init__ re-export and an __all__ string are no callers
        "inner_kernel",  # a kernel only repro.ops reaches
        "outer_kernel(spare=)",  # a kernel keyword only its own body passes
    }
    assert stale == ["Engine.deleted"]


def _scan(tmp_path, module, caller="", readme="# pkg\n"):
    """Labels the scan leaves unexplained for one module and one caller."""
    src, examples = tmp_path / "src", tmp_path / "examples"
    _write(src, {"pkg/__init__.py": "", "pkg/core.py": module})
    _write(examples, {"demo.py": caller})
    (tmp_path / "README.md").write_text(readme)
    unexplained, stale = dead_names(src / "pkg", [src, examples], tmp_path / "README.md")
    assert not stale
    return {entry.rsplit(": ", 1)[1] for entry in unexplained}


ENGINE = """
    class Engine:
        def __init__(self, db, cache=True, *, spare=None):
            self.db = db

        @classmethod
        def open(cls, db, **options):
            return cls(db, **options)
"""


def test_a_positional_argument_passes_a_keyword(tmp_path):
    caller = "from pkg.core import Engine\nEngine(1, False, spare=2)\n"
    assert _scan(tmp_path, ENGINE, caller) == {"Engine.open"}
    # One position short: ``cache`` goes unpassed.
    caller = "from pkg.core import Engine\nEngine(1, spare=2)\n"
    assert _scan(tmp_path, ENGINE, caller) == {"Engine.open", "Engine(cache=)"}


def test_a_classmethod_keyword_needs_a_call_through_its_class(tmp_path):
    module = """
        class Table:
            @classmethod
            def build(cls, keys, values=None, fill=0.5):
                return cls()


        class Stats:
            @classmethod
            def build(cls, column, values, size):
                return cls()
    """
    # ``Stats.build``'s third argument fills no position of ``Table.build``.
    caller = "from pkg.core import Stats, Table\nTable.build(1, 2)\nStats.build(1, 2, 3)\n"
    assert _scan(tmp_path, module, caller) == {"Table.build(fill=)"}
    caller = "from pkg.core import Stats, Table\nTable.build(1, fill=0.25)\nStats.build(1, 2, 3)\n"
    assert _scan(tmp_path, module, caller) == {"Table.build(values=)"}


def test_a_constructor_method_passes_its_keywords_on(tmp_path):
    caller = "from pkg.core import Engine\nEngine.open(1, cache=False, spare=2)\n"
    assert _scan(tmp_path, ENGINE, caller) == set()


def test_a_starred_argument_ends_the_positions(tmp_path):
    """After ``*args`` no position is known, so none is counted."""
    caller = "from pkg.core import Engine\nargs = (1, False)\nEngine(*args, 2, spare=2)\n"
    assert _scan(tmp_path, ENGINE, caller) == {"Engine.open", "Engine(cache=)"}


def test_option_dataclass_fields_need_a_caller(tmp_path):
    module = """
        from dataclasses import dataclass


        @dataclass(frozen=True)
        class ResiliencePolicy:
            max_attempts: int = 1
            backoff_base_s: float = 0.0
            breaker_threshold: int = 5
    """
    caller = "from pkg.core import ResiliencePolicy\nResiliencePolicy(3, breaker_threshold=2)\n"
    assert _scan(tmp_path, module, caller) == {"ResiliencePolicy(backoff_base_s=)"}


def test_an_assignment_is_no_reference(tmp_path):
    module = """
        def helper():
            return 1
    """
    caller = "helper = None\nfor helper in range(2):\n    pass\n"
    assert _scan(tmp_path, module, caller) == {"helper"}
    caller = "import pkg.core\npkg.core.helper()\n"
    assert _scan(tmp_path, module, caller) == set()


def test_private_names_are_not_scanned(tmp_path):
    module = """
        def _helper():
            return 1


        class _Hidden:
            def run(self):
                return 1


        class Shown:
            def _step(self):
                return 1
    """
    assert _scan(tmp_path, module, "from pkg.core import Shown\nShown()\n") == set()


def test_a_property_setter_is_not_a_second_name(tmp_path):
    module = """
        class Gauge:
            @property
            def level(self):
                return self._level

            @level.setter
            def level(self, value):
                self._level = value
    """
    caller = "from pkg.core import Gauge\nGauge()\n"
    assert _scan(tmp_path, module, caller) == {"Gauge.level"}
    caller = "from pkg.core import Gauge\nGauge().level = 3\n"
    assert _scan(tmp_path, module, caller) == set()


def test_a_caller_in_the_defining_module_counts(tmp_path):
    """Only the definition's own lines are excluded, not its whole file."""
    module = """
        def helper():
            return 1


        DEFAULT = helper()
    """
    assert _scan(tmp_path, module) == set()


def test_only_rows_of_the_reason_sections_count(tmp_path):
    module = """
        def helper():
            return 1


        class Engine:
            def __init__(self, *, spare=None):
                self.spare = spare
    """
    caller = "from pkg.core import Engine\nEngine()\n"
    elsewhere = "# pkg\n\n## Usage\n\n| name | note |\n|---|---|\n| `helper` | call it |\n"
    assert _scan(tmp_path, module, caller, elsewhere) == {"helper", "Engine(spare=)"}
    reasons = (
        "# pkg\n\n## Public surface\n\n| name | why |\n|---|---|\n| `helper` | a reason |\n"
        "\n## Configuration\n\n| option | why |\n|---|---|\n| `Engine(spare=)` | a reason |\n"
    )
    assert _scan(tmp_path, module, caller, reasons) == set()
