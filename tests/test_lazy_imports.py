"""Lazy package exports and per-command imports.

``import cforacle`` resolves its exports on first access, and each CLI
command imports only its own layer, so ``bounds``, ``identify`` and the
exact ``reproduce`` scenarios run with numpy unimportable, byte for byte
as in a normal run.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cforacle
from cforacle import cli, reproduce
from cforacle.cli import main

PACKAGE = Path(cforacle.__file__).resolve().parent
SRC = str(PACKAGE.parent)
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# the package's exports, each with the submodule that defines it
EXPORTS = {
    "classical": (
        "ConditionalEstimates", "SampleLog", "estimate_conditionals", "make_rng",
        "simulate_log",
    ),
    "core": (
        "DEFAULT_ENUMERATION_CAP", "ConfoundedModel", "CounterfactualQuery",
        "Evidence", "FunctionDistribution", "FunctionTable", "conditional",
        "conditional_counterfactual", "enumerate_functions", "joint_counterfactual",
    ),
    "errors": (
        "CfOracleError", "ContractViolationError", "DomainError",
        "EnumerationCapError", "ExtractionError", "InfeasibleSystemError",
        "InternalCheckError", "MeasurementInconsistencyError",
        "UnboundedProgramError", "UndefinedConditionalError",
        "UnsupportedTableError", "ValidationError",
    ),
    "identify": (
        "BINARY_SCENARIOS", "Bounds", "ConstraintLevel", "ConstraintSystem",
        "IdentifiabilityResult", "LinearTarget", "binary_forward_measurements",
        "build_constraints", "is_identifiable", "lp_bounds",
        "lp_bounds_with_witnesses", "restricted_tail_model",
        "scenario_probability_exact", "solution_family_direction",
        "solve_binary_pF",
    ),
    "modelio": ("load_model", "parse_model", "save_model"),
    "quantum": (
        "Amplitudes", "DensityMatrix", "MeasurementEffect", "bell_effect",
        "build_rho_xy", "computational_effect", "extract_two_way", "measure",
        "scenario_probability_simulated", "tomography_sweep",
    ),
    "report": ("Claim", "ReproductionReport"),
    "reproduce": (
        "constant_mixture", "permutation_mixture", "reproduce_appendix_b",
        "reproduce_appendix_e_general",
    ),
    "toy": (
        "ToyEpistemicState", "apply_oracle_mixture", "toy_measure", "toy_prepare",
        "toy_scenario_probability", "verify_binary_equivalence",
    ),
}
NAMES = {name for names in EXPORTS.values() for name in names}

# stdout of `cforacle --help` and `cforacle reproduce --help` at 80 columns
GOLDEN_HELP = {
    "--help": """\
usage: cforacle [-h]
                {reproduce,bounds,identify,simulate,tomography,toy-check} ...

Counterfactual identification via classical and coherent oracle queries.

positional arguments:
  {reproduce,bounds,identify,simulate,tomography,toy-check}
    reproduce           run a scripted scenario and report its claims
    bounds              partial-identification interval for a target
    identify            decide identifiability with witnesses
    simulate            log classical oracle queries as CSV
    tomography          extract all pairwise marginals from the probe state
    toy-check           bit-pair model versus exact coherent probabilities

options:
  -h, --help            show this help message and exit
""",
    "reproduce --help": """\
usage: cforacle reproduce [-h]
                          {appendix_b,appendix_e,appendix_e_general,binary,model_ab,toy}

positional arguments:
  {appendix_b,appendix_e,appendix_e_general,binary,model_ab,toy}

options:
  -h, --help            show this help message and exit
""",
}

# a CLI launch in which any import of numpy fails
NO_NUMPY = (
    "import sys; sys.modules['numpy'] = None; "
    "from cforacle.cli import main; sys.exit(main(sys.argv[1:]))"
)

APPE_TWO_WAY = ["--model", "appE.json", "--level", "two-way", "--target", "0:1,1:1,2:1"]


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, check=False
    )


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from cforacle import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES
    assert len(NAMES) == 67


def test_each_export_is_its_submodules_object():
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"cforacle.{module}")
        for name in names:
            assert getattr(cforacle, name) is getattr(submodule, name), name


# Exported with no caller: the Born-rule route through the density matrix
# and measurement effects, kept as the reference that the tests check
# ``scenario_probability_exact`` against; and the one-key or one-scenario
# entries of rules that the package itself runs in batch form
# (``tomography_sweep``, ``binary_forward_measurements`` and
# ``verify_binary_equivalence`` state the same rule over every key).
UNCALLED_EXPORTS = {
    "scenario_probability_simulated",
    "extract_two_way",
    "scenario_probability_exact",
    "toy_scenario_probability",
}


def code_names(path):
    """(names loaded, names imported or read as an attribute) in the code
    of ``path``; comments, docstrings and definitions do not count."""
    loaded, reached = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            reached.add(node.attr)
        elif isinstance(node, ast.alias):
            reached.add(node.name)
    return loaded, reached


def test_every_export_has_a_caller():
    # a caller: the defining module loads the name, or a package module or
    # a perfbench file imports it or reads it as an attribute
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += PERFBENCH.glob("*.py")
    names = {path: code_names(path) for path in files}
    uncalled = {
        name
        for name, module in cforacle._EXPORTS.items()
        if name not in names[PACKAGE / f"{module}.py"][0]
        and not any(name in reached for _, reached in names.values())
    }
    assert uncalled == UNCALLED_EXPORTS


# Defined with no caller in the package: perfbench/tracer.py wraps it by
# name, so it stays until ROADMAP item 8 moves the tracer off it, and the
# change that frees it deletes it and empties this set.
UNCALLED_PRIVATE = {"simplex_minimize"}


def test_every_private_definition_has_a_caller():
    # a module-level function or class that is not exported must be loaded
    # or reached by package code; ``__init__``'s own two are its module hooks
    files = list(PACKAGE.glob("*.py"))
    used = set().union(*(loaded | reached for loaded, reached in map(code_names, files)))
    defined = {
        node.name
        for path in files
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined - set(cforacle._EXPORTS) - used == UNCALLED_PRIVATE


def test_dir_lists_every_export():
    assert NAMES <= set(dir(cforacle))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cforacle.no_such_name
    assert not hasattr(cforacle, "no_such_name")


@pytest.mark.parametrize("argv", sorted(GOLDEN_HELP))
def test_help_is_unchanged(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv.split())
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == GOLDEN_HELP[argv]


def test_bare_cli_import_loads_no_numpy_layer():
    # a fresh interpreter: in this one every layer is already loaded
    result = run_python(
        "-c",
        "import sys, cforacle.cli\n"
        "print(sorted({'numpy', 'cforacle.classical', 'cforacle.quantum',"
        " 'cforacle.toy'} & set(sys.modules)))\n"
        "from cforacle import classical, quantum\n"
        "print(classical is sys.modules['cforacle.classical'],"
        " quantum is sys.modules['cforacle.quantum'])\n",
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().splitlines() == ["[]", "True True"]


def test_reproduce_choices_are_the_scenarios():
    assert cli._SCENARIO_NAMES == tuple(sorted(reproduce.SCENARIOS))


@pytest.mark.parametrize("command", ["simulate", "tomography"])
def test_float_commands_load_no_scenario_layer(command):
    # a fresh interpreter, as in test_bare_cli_import_loads_no_numpy_layer
    argv = [command, "--model", "uniform2.json"]
    argv += ["--queries", "3"] if command == "simulate" else []
    result = run_python(
        "-c",
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from cforacle.cli import main\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, sorted({'cforacle.reproduce', 'cforacle.report'}"
        " & set(sys.modules)))\n",
        *argv,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode() == "0 []\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", *APPE_TWO_WAY],
        ["identify", *APPE_TWO_WAY],
        ["reproduce", "appendix_b"],
        ["reproduce", "appendix_e"],
        ["reproduce", "appendix_e_general"],
        ["reproduce", "binary"],
        ["reproduce", "toy"],
        ["toy-check"],
        ["--help"],
    ],
    ids=" ".join,
)
def test_exact_commands_run_without_numpy(argv):
    blocked = run_python("-c", NO_NUMPY, *argv)
    normal = run_python("-m", "cforacle.cli", *argv)
    assert blocked.returncode == 0, blocked.stderr.decode()
    assert normal.returncode == 0
    assert blocked.stdout == normal.stdout
