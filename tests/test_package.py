"""Package-wide invariants: no mutable module state, traced names exist."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import polyprime

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
