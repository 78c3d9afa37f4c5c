"""A pytest plugin that fails a session which leaves a statement of
``src/sinet`` unrun.

Load it by name, with ``tests`` on the path::

    PYTHONPATH=src:tests python -m pytest -q -p reach

It traces the lines that run in each ``sinet`` module with ``sys.settrace``
from before pytest loads the first conftest, so before anything imports
``sinet``; importing the module alone traces nothing. At the end of the
session it lists every statement of every module (found by ``ast``;
docstrings excepted) of which no line ran, and sets the exit status to 1 if
there is one. A compound statement counts as run when any line of it ran, a
decorated definition when its decorators did. The body of a module-level
``if __name__ == "__main__":`` runs only when the module is a script, so it
is not listed. A statement that shares its only line with another counts as
run when that line did.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sinet"


class Reach:
    """The lines run in each of a set of source files, by its tracer."""

    def __init__(self, paths):
        self.ran = {str(p): set() for p in paths}
        self._by_name = {}  # co_filename -> the lines of its file, or None
        self.unreached = []

    def trace(self, frame, event, arg):
        """A ``sys.settrace`` function that records the lines of the files."""
        name = frame.f_code.co_filename
        lines = self._by_name.get(name, False)
        if lines is False:
            lines = self._by_name[name] = self.ran.get(os.path.realpath(name))
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    @pytest.hookimpl(tryfirst=True)
    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        for path, ran in self.ran.items():
            source = Path(path).read_text(encoding="utf-8")
            text = source.splitlines()
            name = Path(path).relative_to(PACKAGE.parents[1])
            self.unreached += [f"{name}:{i}: {text[i - 1].strip()}"
                               for i in unreached(source, ran)]
        if self.unreached:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        if self.unreached:
            terminalreporter.section("statements of src/sinet that no test ran", red=True)
            for entry in self.unreached:
                terminalreporter.write_line(entry)
        else:
            terminalreporter.write_line(
                f"reach: every statement of {len(self.ran)} sinet modules ran")


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _statements(body: list[ast.stmt], module_level: bool = False):
    """The first and last line of each statement of ``body`` and of the
    bodies nested in it."""
    for i, node in enumerate(body):
        if i == 0 and _is_docstring(node):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        yield first, node.end_lineno
        if module_level and _is_main_guard(node):
            continue
        blocks = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
        blocks += [c.body for c in getattr(node, "handlers", []) + getattr(node, "cases", [])]
        for block in blocks:
            yield from _statements(block)


def unreached(source: str, ran: set[int]) -> list[int]:
    """The first line of each statement of the module ``source`` of which no
    line is in ``ran``."""
    return [
        first for first, last in _statements(ast.parse(source).body, module_level=True)
        if not ran.intersection(range(first, last + 1))
    ]


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config):
    # before tests/conftest.py, the first importer of sinet, is loaded
    reach = Reach(sorted(PACKAGE.rglob("*.py")))
    early_config.pluginmanager.register(reach, "reach-tracer")
    sys.settrace(reach.trace)
