"""Every integer draw in the package goes through grassmann._below, which
reads the generator through getrandbits alone: no module under src/sgk
calls a Random method that draws integers or picks from a sequence.  A
call that drew through randrange's internals could change the stream that
seeded checks and pinned values depend on."""

import ast
from pathlib import Path

import pytest

import sgk

_DRAWS = {"randint", "randrange", "choice", "choices", "sample", "shuffle",
          "uniform"}


def draw_calls(source):
    """(line, name) of every call to a method or function named in _DRAWS,
    and of every such name imported from random."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in _DRAWS:
                found.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in _DRAWS]
    return found


def test_no_module_draws_outside_the_sampler():
    paths = sorted(Path(sgk.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    found = ["%s:%d: %s" % (p.name, line, name) for p in paths
             for line, name in draw_calls(p.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("source", [
    "x = rng.choice(seq)",
    "x = rng.randint(1, 2)",
    "x = self.rng.randrange(9)",
    "x = random.choices(seq, k=2)",
    "rng.shuffle(xs)",
    "x = rng.sample(xs, 2)",
    "x = rng.uniform(0, 1)",
    "from random import choice",
    "x = choice(seq)",
])
def test_the_guard_sees_each_draw(source):
    assert len(draw_calls(source)) == 1


def test_the_guard_allows_the_sampler_and_keywords():
    source = ("x = _below(rng, 9) + rng.getrandbits(3)\n"
              "if rng.random() < 0.25:\n    pass\n"
              "p.add_argument('--format', choices=('text', 'json'))\n")
    assert draw_calls(source) == []
