import argparse
import ast
import dataclasses
from pathlib import Path

import fwm
from fwm import cli, sweep


def test_every_exported_name_resolves():
    """A name left in ``fwm.__all__`` after its object is gone breaks
    ``from fwm import *``."""
    assert [name for name in fwm.__all__ if not hasattr(fwm, name)] == []


def test_no_unused_module_imports():
    """Every name a module imports at module level is read somewhere in
    that module (``__init__.py`` re-exports, so it is not checked)."""
    unused = []
    for path in sorted(Path(fwm.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_module_definition_is_read():
    """Every function, class and name a module defines at module level is
    read somewhere in the package: as a name, an attribute, an imported
    name or an ``__all__`` entry.  A helper only tests call is dead code."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(fwm.__file__).parent.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    read.update(fwm.__all__)
    unread = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{name}: {d}" for d in defined if d not in read]
    assert unread == []


def test_api_ledger():
    """The public names of ``fwm``; a new or dropped name is an edit here."""
    assert fwm.__all__ == [
        "CutoffError", "FockBasis", "FockStateVector", "MomentSpec",
        "coherent_state", "cutoffs_for", "moments",
        "ConfigError", "CoherentInput", "ModelParams", "PerturbativeCoefficients",
        "coefficient_derivatives", "coefficients",
        "CompareResult", "Hamiltonian", "build_hamiltonian",
        "certification_summary", "compare", "evolve_grid", "run",
        "witness_grid",
        "eom_residual", "etcr_residual", "residual_scaling_slope",
        "RunConfig", "Series", "UsageError", "default_compare_config",
        "presets", "rows_to_csv", "rows_to_json", "run_compare", "run_sweep",
        "Criterion", "InvalidWitness", "WitnessId", "evaluate",
        "__version__"]


def _dotted_keys(cls, prefix=""):
    for f in dataclasses.fields(cls):
        if f.name in sweep._SECTIONS:
            yield from _dotted_keys(sweep._SECTIONS[f.name], f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_option_ledger():
    """Every settable value: the config keys (each also a dotted flag) and
    each subcommand's own flags.  A new option is an edit to these lists."""
    assert list(_dotted_keys(sweep.RunConfig)) == [
        "params.g", "params.delta_omega1", "input.alpha_abs", "input.phi", "input.beta",
        "input.gamma", "gt_grid.start", "gt_grid.stop", "gt_grid.count", "witnesses",
        "workers", "seed"]
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: [o for a in sp._actions if a.dest != "help" for o in a.option_strings]
             for name, sp in sub.choices.items()}
    assert flags == {
        "sweep": ["--config", "--preset", "--out", "--format", "--oracle"],
        "compare": ["--config", "--preset", "--out"],
        "presets": ["--format"],
        "check": ["--config", "--preset", "--out"]}
