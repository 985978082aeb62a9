"""The package computes exactly: no module under src/sgk uses floating
point.  The only float allowed is a probability on the right of
`rng.random() <`, where the random draw picks a branch."""

import ast
from pathlib import Path

import pytest

import sgk

_MATH_ALLOWED = {"gcd", "lcm", "isqrt"}


def _is_probability(node, parents):
    """True for the float c of `rng.random() < c`."""
    cmp = parents.get(node)
    if not (isinstance(cmp, ast.Compare) and cmp.comparators == [node]
            and isinstance(cmp.ops[0], ast.Lt)):
        return False
    call = cmp.left
    return (isinstance(call, ast.Call) and not call.args
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "random"
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "rng")


def float_uses(source):
    """(line, description) of every floating-point use in the source."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, (float, complex)) \
                and not _is_probability(node, parents):
            found.append((node.lineno, "constant %r" % node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("float", "complex"):
            found.append((node.lineno, "%s(" % node.func.id))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import cmath")
                      for alias in node.names if alias.name == "cmath"]
        elif isinstance(node, ast.ImportFrom) \
                and node.module in ("math", "cmath"):
            found += [(node.lineno, "%s.%s" % (node.module, alias.name))
                      for alias in node.names
                      if node.module == "cmath"
                      or alias.name not in _MATH_ALLOWED]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "math" \
                and node.attr not in _MATH_ALLOWED:
            found.append((node.lineno, "math.%s" % node.attr))
    return found


def test_no_module_uses_floats():
    paths = sorted(Path(sgk.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    found = ["%s:%d: %s" % (p.name, line, what) for p in paths
             for line, what in float_uses(p.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "x = 2j",
    "x = float(y)",
    "x = complex(1, 2)",
    "import cmath",
    "from cmath import sqrt",
    "from math import sqrt",
    "import math\nx = math.sqrt(2)",
    "import math\nx = math.pi",
    "x = random() < 0.5",
    "x = rng.random() > 0.5",
    "x = rng.random() < y * 0.5",
])
def test_the_guard_sees_each_float_use(source):
    assert len(float_uses(source)) == 1


def test_the_guard_allows_exact_math_and_probabilities():
    source = ("import math\nx = math.gcd(4, 6) + math.lcm(2, 3)"
              " + math.isqrt(9)\nif rng.random() < 0.25:\n    pass\n")
    assert float_uses(source) == []
