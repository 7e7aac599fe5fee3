"""The suite launches an interpreter only in the tests listed here; every other test runs in the pytest process.

Only launches count: the helper that ``export_csv`` forks to format every other CSV chunk, and the one that
``heol run`` forks before its loop to format every chunk, start no interpreter, so a test that exports a long
log or runs ``cli_main`` on one is not listed.

A process is kept where it is the subject of the test (an entry point, a setting read at start-up) or
where a regression could exhaust the memory of the pytest process.  A new launch has to be added to
``LAUNCHERS`` on purpose.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent

#: ``module::test`` of every test that starts a process, and why it does
LAUNCHERS = {
    "test_cli.py::test_console_entry_point": "the `python -m heol.cli` entry point is the subject",
    "test_cli.py::test_oversized_grid_exits_3_before_allocating": "a regression would allocate the grid",
    "test_cli.py::test_unrunnable_windows_and_starts_exit_3_at_validate": "the 10^8-sample window row",
    "test_cli.py::test_overflowing_noise_exits_4_without_a_warning": "PYTHONWARNINGS is read at start-up",
    "test_estimators.py::test_long_window_estimate_does_not_depend_on_the_blas_thread_count": (
        "OPENBLAS_NUM_THREADS is read at start-up"
    ),
    "test_pytest_config.py::test_failing_property_is_reported_not_an_internal_error": (
        "pytest run with the project's own settings"
    ),
}


def launchers(sources: dict[str, str]) -> list[str]:
    """``module::test`` of each test function in ``sources`` that starts a process.

    A module-level function or name starts one if it reads the ``subprocess`` module or a name imported
    from it, the shared ``run_python``, or another module-level name of its module that starts one.
    """
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        starts, reads = set(), {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                starts |= {a.asname or a.name for a in node.names if a.name == "subprocess"}
            elif isinstance(node, ast.ImportFrom):
                starts |= {
                    a.asname or a.name
                    for a in node.names
                    if node.module == "subprocess" or (node.module, a.name) == ("conftest", "run_python")
                }
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads[node.name] = node
            elif isinstance(node, ast.Assign):
                reads.update((t.id, node.value) for t in node.targets if isinstance(t, ast.Name))
        reads = {name: {n.id for n in ast.walk(body) if isinstance(n, ast.Name)} for name, body in reads.items()}
        while grown := {name for name, names in reads.items() if names & starts} - starts:
            starts |= grown
        found += [f"{module}::{name}" for name in reads if name.startswith("test_") and name in starts]
    return found


def test_the_guard_finds_every_launch():
    sources = {
        "test_a.py": (
            "import functools\nimport subprocess as sp\nfrom conftest import run_python\n"
            "def heol_cli(*args):\n    return sp.run(args)\n"
            "cli = functools.partial(run_python, '-m', 'heol.cli')\n"
            "def test_helper():\n    heol_cli('list')\n"
            "def test_partial():\n    cli('list')\n"
            "def test_direct():\n    run_python('-c', 'pass')\n"
            "def test_in_process():\n    cli_main(['list'])\n"
        ),
        "test_b.py": "from subprocess import run\ndef test_run():\n    run(['true'])\ndef test_none():\n    pass\n",
    }
    assert launchers(sources) == [
        "test_a.py::test_helper",
        "test_a.py::test_partial",
        "test_a.py::test_direct",
        "test_b.py::test_run",
    ]


def test_only_the_listed_tests_start_a_process():
    found = launchers({p.name: p.read_text() for p in sorted(TESTS.glob("*.py"))})
    assert sorted(found) == sorted(LAUNCHERS)
