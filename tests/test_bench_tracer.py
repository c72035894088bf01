"""bench/tracer.py wraps names of the program it traces; they must exist.

The tracer skips a name the program no longer has, so its metric reads 0
without an error.  These tests read bench/tracer.py without importing it.
"""

import ast
import inspect
from pathlib import Path

import convpow.cli
import convpow.report

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_constant(name: str):
    """The literal value assigned to module-level ``name`` in bench/tracer.py."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACER}")


def test_every_report_span_names_a_function_of_convpow_report():
    names = [name for names in tracer_constant("REPORT_SPANS").values() for name in names]
    assert "maximal_function" in names and "kernel_table" in names
    assert [name for name in names if not hasattr(convpow.report, name)] == []


def test_every_cli_span_names_a_function_of_convpow_cli():
    names = [name for names in tracer_constant("CLI_SPANS").values() for name in names]
    assert [name for name in names if not hasattr(convpow.cli, name)] == []


def test_maximal_function_takes_n_max():
    # the tracer binds the call's arguments to read n_max for its step counts
    assert "n_max" in inspect.signature(convpow.report.maximal_function).parameters
