"""Package-wide invariants: no mutable module state, traced names exist,
the README's imports resolve."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import polyprime

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
README = ROOT / "README.md"


def package_modules():
    return [polyprime] + [importlib.import_module(f"polyprime.{info.name}")
                          for info in pkgutil.iter_modules(polyprime.__path__)]


def test_no_module_level_mutable_package_instances():
    # A module-level object of a package class that is not a frozen
    # dataclass is state a thread or a reused worker could corrupt.
    found = [f"{mod.__name__}.{name}"
             for mod in package_modules()
             for name, value in vars(mod).items()
             if type(value).__module__.startswith("polyprime")
             and not (dataclasses.is_dataclass(value)
                      and type(value).__dataclass_params__.frozen)]
    assert found == []


def test_config_error_is_raised_only_in_the_config_layer():
    # The configs check every rule of a run's input as they are built;
    # the kernels assume checked input and raise no ConfigError.
    layer = {"config.py", "runio.py", "cli.py"}
    found = []
    for path in sorted((ROOT / "src" / "polyprime").glob("*.py")):
        if path.name in layer:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                if getattr(exc, "id", None) == "ConfigError":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_traced_spans_name_existing_attributes():
    # The benchmark's tracer wraps polyprime.<module>.<function> for each
    # Span("<module>", "<function>", ...) of its SPANS; the file is only
    # parsed here, not imported.
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    spans = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SPANS"])
    names = [(span.args[0].value, span.args[1].value)
             for span in spans.elts]
    assert len(names) > 10
    missing = [f"{module}.{func}" for module, func in names
               if not hasattr(importlib.import_module(f"polyprime.{module}"),
                              func)]
    assert missing == []


def test_readme_imports_resolve():
    # Each name has one import path, its submodule: an import the README
    # shows from anywhere else fails here rather than for a reader.
    lines = [line.strip()
             for line in README.read_text(encoding="utf-8").splitlines()
             if re.match(r"\s*from polyprime\S* import ", line)]
    assert len(lines) == 4
    for line in lines:
        exec(line, {})
