"""The package's public surface."""

import importlib
import types

import polycal
from conftest import ROOT
from polycal import cli, polyring


def test_every_exported_name_resolves():
    missing = [name for name in polycal.__all__ if not hasattr(polycal, name)]
    assert missing == []
    assert len(set(polycal.__all__)) == len(polycal.__all__)


def test_every_name_the_benchmark_wraps_exists():
    # The traced benchmark pass patches these names in place, so deleting or
    # renaming one breaks it; this catches that before the benchmark runs.
    # Run from its source, so no bytecode is written under perfbench/.
    path = ROOT / "perfbench" / "spans.py"
    spans = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(spans))
    missing = [
        f"{module}.{function}"
        for module, function, *_ in spans._FUNCTIONS
        if not hasattr(importlib.import_module(f"polycal.{module}"), function)
    ]
    missing += [
        f"Polynomial.{method}"
        for method in spans.ARITH_METHODS
        if method not in vars(polyring.Polynomial)
    ]
    missing += [
        f"cli.{handler}"
        for handler in [*spans.SUBCOMMANDS.values(), "main"]
        if not hasattr(cli, handler)
    ]
    if "__init__" not in vars(polyring.Monomial):
        missing.append("Monomial.__init__")
    assert missing == []
