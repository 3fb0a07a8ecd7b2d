"""Library imports: every name a module imports is used there, the
brute-force references in ``oracles`` stay out of the library's layers, and
the library and its tests need nothing beyond the standard library, numpy
and pytest.

``runner`` keeps four names it never calls: ``bench/tracing.py`` wraps
the probed builders, ``wigner`` and ``apply_channel`` at ``otfsim.runner``,
so a module that calls them through ``runner`` shows in the per-layer trace.
Every link receives by ``band_channel``, so ``apply_channel`` stays only as
the library function and the oracle.  Those two
probed builders are the only names a library module other than the
package's ``__init__`` and ``selftest`` takes from ``oracles``; the
channel layer imports neither ``oracles`` nor the modem whose chain they probe.
The runner places every unitary link on its own cell map, so it takes only
``SchemeConfig`` from the modem, to validate a scenario's scheme.  Its
detectors read every channel as the delay band or, for one-tap, its
response, so it takes neither dense slot view from the channel layer:
``slot_operators`` and ``dd_domain_operator`` stay library API, checked
against the oracles.  Every spread link, SC-FDMA (OTFS with N = 1)
included, synthesises its delay-Doppler grid by ``dd_synthesis``, so the
runner takes no ``isfft`` from the transforms.  A run and its CSV load no
``numpy.ma``, which ``np.unique`` (and so ``np.percentile``) imports on
its first call, at some 20 ms a fresh process: every pool worker and
every CLI run would pay it.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import child_env
from test_golden import GOLDEN

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src" / "otfsim"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
KEPT = {"runner.py": {"apply_channel", "chain_matrix", "effective_matrix", "wigner"}}
#: what each module may import from ``oracles`` (None: anything); others import nothing
ORACLE_USERS = {"__init__.py": None, "selftest.py": None,
                "runner.py": {"chain_matrix", "effective_matrix"}}


def imported_and_used(tree: ast.Module):
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


def package_imports(tree: ast.Module) -> dict:
    """Each otfsim module imported -> the names taken from it (None for the module itself)."""
    taken = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("otfsim."):
                    taken.setdefault(a.name.split(".")[1], set()).add(None)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("otfsim")):
            module = (node.module or "").removeprefix("otfsim").lstrip(".")
            for a in node.names:
                if module:
                    taken.setdefault(module.split(".")[0], set()).add(a.name)
                else:  # from . import m
                    taken.setdefault(a.name, set()).add(None)
    return taken


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text())


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    imported, used = imported_and_used(parse(name))
    assert imported - used <= KEPT.get(name, set())


@pytest.mark.parametrize("name", ["__init__.py", *MODULES])
def test_only_diagnostics_import_the_oracles(name):
    taken = package_imports(parse(name)).get("oracles", set())
    allowed = ORACLE_USERS.get(name, set())
    assert allowed is None or taken <= allowed


@pytest.mark.parametrize("name", ["__init__.py", *MODULES])
def test_no_module_rebinds_a_global(name):
    # no module-global state: nothing is kept between calls behind the caller's back
    assert not any(isinstance(node, ast.Global) for node in ast.walk(parse(name)))


def test_channel_layer_imports_no_chain():
    assert not {"modem", "oracles"} & package_imports(parse("channel.py")).keys()


def test_runner_takes_only_the_scheme_config_from_the_modem():
    assert package_imports(parse("runner.py")).get("modem") == {"SchemeConfig"}


def test_runner_takes_no_dense_slot_view_from_the_channel():
    taken = package_imports(parse("runner.py")).get("channel", set())
    assert not {"slot_operators", "dd_domain_operator"} & taken


def test_runner_takes_no_isfft_from_the_transforms():
    taken = package_imports(parse("runner.py")).get("transforms", set())
    assert "isfft" not in taken


#: the packages a library module or test may import: the runtime is numpy only
#: (scipy and hypothesis, where installed, are not dependencies); tests add
#: pytest and their sibling test modules
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pytest", "otfsim"}


def top_level_imports(tree: ast.Module) -> set:
    """The top-level package of every absolute import, wherever it is made."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_are_numpy_only(path):
    siblings = {p.stem for p in TESTS.glob("*.py")} if path.parent == TESTS else set()
    assert top_level_imports(ast.parse(path.read_text())) <= ALLOWED | siblings


@pytest.mark.parametrize("golden", ["otfs_onetap_random", "ostf_onetap_fixed_cyclic",
                                    "otfs_mmse_random"])
def test_a_run_and_its_csv_load_no_masked_arrays(golden):
    code = ("import sys; from otfsim.runner import format_csv, load_scenario, run; "
            "format_csv(run(load_scenario(sys.argv[1]))); print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(GOLDEN / f"{golden}.json")],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
