"""The library's settable values, counted as parameters with a default.

A default is a knob a caller may turn; one that no caller turns belongs in
a module constant.  The walk counts, in every function, method and lambda
of ``src/berger_cgc`` except ``cli.py`` (whose options are counted as
flags), each parameter with a default value and each ``**kwargs``.  A
change that adds or removes one updates ``KNOBS`` and says so in
CHANGES.md.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "berger_cgc"
KNOBS = 26


def defaulted_parameters(path):
    count = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            count += args.kwarg is not None
    return count


def test_defaulted_parameter_count():
    counts = {p.name: defaulted_parameters(p) for p in sorted(SRC.glob("*.py"))
              if p.name != "cli.py"}
    assert sum(counts.values()) == KNOBS, counts


def test_the_walk_counts_each_kind_of_default(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(a, b=1, *c, d, e=2, **g): pass\n"
                    "class C:\n    def m(self, x=0): return lambda y=1: y\n")
    assert defaulted_parameters(path) == 5
