"""The public surface: the names the package exports and the CLI's commands
and long flags.  Changing either is a deliberate act that edits this file.
The integer arguments of the entry points share one check, probed here, and
every public function or class in the package has a caller in the package or
is exported."""

import argparse
import ast
import inspect
from pathlib import Path

import pytest

import cubgreeks
from cubgreeks import Payoff, cli, paths, sde
from cubgreeks.errors import DomainError

EXPORTS = {
    "AlgebraContext", "CubatureFormula", "GreekRequest", "GreekResult", "GreeksFormula",
    "McConfig", "Payoff", "PiecewisePath", "TensorElement", "VectorFieldSystem",
    "black_scholes", "bracket_evaluate", "bracket_vf", "bs_closed_form", "context",
    "covariance_diagnostics", "decompose_direction", "euler_expectation", "evolve",
    "expectation_degree3", "expectation_degree5_d1", "expectation_one_step", "fd_greek",
    "first_variation", "gamma_partition", "greek_iterated", "greek_one_step", "greek_target",
    "greeks_solve", "greeks_two_point", "heat_element", "heisenberg_toy", "lie_basis",
    "lie_direction", "load_model", "malliavin_delta_m1", "rescale_formula", "scale_path",
    "segment_signature", "signature", "signature_expectation_mc", "verify_moments",
    "word_degree",
}

# element-level algebra beside exp, mul and dilate that no package code calls
LIBRARY_ONLY = {"algebra.adjoint", "algebra.log"}

COMMON = {"--format", "--help", "--out", "--seed", "--threads"}
COMMANDS = {
    "verify": COMMON | {"--d", "--m"},
    "greek": COMMON | {
        "--direction", "--m", "--model", "--mprime", "--ode-steps", "--partition", "--payoff",
        "--s0", "--scale", "--t", "--y",
    },
    "converge": COMMON | {
        "--direction", "--m", "--model", "--mprime", "--ode-steps", "--payoff", "--scale",
        "--study", "--t-list", "--y",
    },
    "diagnostics": COMMON | {"--paths", "--steps", "--t"},
    "cubature": COMMON | {"--d", "--direction", "--in", "--kind", "--m", "--t"},
}


def test_package_exports():
    # submodules become attributes as they are imported, so they do not count
    names = {n for n, v in vars(cubgreeks).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert names == EXPORTS
    assert cubgreeks.__version__ == "0.1.0"


def test_cli_commands_and_long_flags():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {o for a in command._actions for o in a.option_strings if o.startswith("--")}
        for name, command in sub.choices.items()
    }
    assert flags == COMMANDS


BS = sde.black_scholes(0.05, 0.3)


def _request(m=2, m_prime=3):
    return cubgreeks.GreekRequest(BS, Payoff("identity"), (1.0,), (1.0,), 1.0, m, m_prime, (0.5, 0.5))


@pytest.mark.parametrize("probe", [
    lambda: cubgreeks.context(True, 2),
    lambda: cubgreeks.context(2, True),
    lambda: _request(m=True),
    lambda: _request(m_prime=True),
    lambda: cubgreeks.expectation_one_step(BS, Payoff("identity"), [1.0], 0.1, True),
    lambda: cubgreeks.gamma_partition(1.0, 0.1, True, 1.0),
    lambda: cubgreeks.McConfig(True, True, True),
    lambda: cubgreeks.McConfig(2, 1, True),
    lambda: cubgreeks.evolve(BS, [1.0], paths.line_path(1.0, [1.0, 0.5]), True),
], ids=["context-d", "context-m", "request-m", "request-mprime", "expectation-mprime", "partition-k",
        "mc-counts", "mc-seed", "evolve-steps"])
def test_bool_is_not_an_integer(probe):
    # bool is a numbers.Integral, so each of these once passed its integer check
    with pytest.raises(DomainError):
        probe()


def _uncalled_public_names(src):
    """module.name of each public module-level function or class in src that no
    other top-level statement of the package refers to and __init__ does not import."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defined = {
        (mod, node.name)
        for mod, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = set()
    for mod, tree in modules.items():
        aliases = {}  # local name -> module name, or (module, name) for an imported name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = alias.name if node.module is None else (node.module, alias.name)
                    aliases[alias.asname or alias.name] = target
                    if mod == "__init__" and node.module:
                        used.add(target)  # exported
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    target = aliases.get(node.id, (mod, node.id))
                    if isinstance(target, tuple):
                        used.add(target)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if isinstance(aliases.get(node.value.id), str):
                        used.add((aliases[node.value.id], node.attr))
    return {f"{mod}.{name}" for mod, name in defined - used}


def test_src_names_have_a_src_caller():
    # test-only helpers belong in tests/oracles.py, not in the package
    src = Path(cubgreeks.__file__).parent
    assert _uncalled_public_names(src) == LIBRARY_ONLY
