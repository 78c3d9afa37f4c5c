import sys
import textwrap

import reach

MODULE = textwrap.dedent('''\
    """Module docstring."""
    import os

    @staticmethod
    def f(x):
        """Docstring."""
        if x:
            return 1
        try:
            y = (x +
                 2)
        except ValueError:
            y = 0
        return y

    class C:
        """Docstring."""
        z = 3

    if __name__ == "__main__":
        f(0)
''')


def test_statements_of_which_no_line_ran():
    # lines 2, 4, 16 and 20 run on import; nothing runs inside f or C
    assert reach.unreached(MODULE, {2, 4, 16, 20}) == [7, 8, 9, 10, 13, 14, 18]


def test_a_statement_runs_when_any_line_of_it_did():
    # a decorated def counts by its decorator, a try and a class by their
    # bodies, a multi-line statement by any of its lines
    ran = {2, 4, 7, 8, 11, 18, 20}
    assert reach.unreached(MODULE, ran) == [13, 14]


def test_traced_lines_fit_the_statement_rule(tmp_path):
    # import the module and call f(1) under the plugin's tracer: the
    # decorator, the class body and the guard's test run, the try does not
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    tracer = reach.Reach([path.resolve()])
    namespace = {"__name__": "module"}
    code = compile(MODULE, str(path), "exec")
    outer = sys.gettrace()
    sys.settrace(tracer.trace)
    try:
        exec(code, namespace)
        namespace["f"](1)
    finally:
        sys.settrace(outer)
    assert reach.unreached(MODULE, tracer.ran[str(path.resolve())]) == [9, 10, 13, 14]
