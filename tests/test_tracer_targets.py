"""The benchmark tracer (perfbench/tracer.py) patches sgk by name at run time.

A rename or merge in the package would otherwise surface only when a traced
benchmark run fails, so every name the tracer patches is resolved here the
way its `install` resolves it, without patching anything.  Two more tests
install the tracer in a fresh interpreter and check that values SuperNumber
builds through its trusted constructor, a product and the entries of a
group product summed by grassmann.dot, still reach the construction
counters.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import sgk
from sgk import cli
from sgk.grassmann import Qi

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    for name, targets in tracer.SPANNED.items():
        for modname, dotted in targets:
            module = importlib.import_module("sgk." + modname)
            owner, attr = tracer._resolve(module, dotted)
            assert callable(getattr(owner, attr, None)), (name, dotted)
    for attr in tracer.QI_OPS:
        assert callable(getattr(Qi, attr, None)), attr
    # cli.check wraps the third field of each built-in check entry
    assert cli.SUITE and all(callable(fn) for _, _, fn in cli.SUITE)


def _traced(body):
    """Run `body` in a fresh interpreter with the tracer installed as `tr`,
    which `body` switches on and off itself; returns the JSON object `body`
    assigns to `out`."""
    # a fresh interpreter, so the patching leaves this process alone
    script = "\n".join([
        "import importlib.util, json, sys",
        "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1])",
        "tracer = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(tracer)",
        "import sgk",
        "tr = tracer.Tracer()",
        "tracer.install(tr)",
        textwrap.dedent(body),
        "print(json.dumps(out))"])
    src = str(pathlib.Path(sgk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", script, str(TRACER)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_tracer_counts_products_from_the_trusted_constructor():
    got = _traced("""
        from sgk.grassmann import Qi, SuperNumber
        x = SuperNumber(4, {(): 1, (1,): 2, (2, 3): Qi(0, 1)})
        y = SuperNumber(4, {(): 3, (4,): -1, (1, 2): 5})
        tr.active = True
        p = x * y
        tr.active = False
        out = {"init": tr.sn_init, "peak": tr.sn_peak_terms,
               "mul": tr.calls[tr.names.index("grassmann.sn_mul")],
               "terms": len(p.terms)}
    """)
    # one product, one SuperNumber built, and the counter saw its 7 terms
    assert got == {"init": 1, "peak": 7, "mul": 1, "terms": 7}


def test_tracer_counts_the_entries_of_a_group_product():
    got = _traced("""
        import random
        from sgk.scgroup import random_sc_matrix
        rng = random.Random(5)
        m1, m2 = random_sc_matrix(rng, 4), random_sc_matrix(rng, 4)
        tr.active = True
        m = m1.mul(m2)
        tr.active = False
        out = {"init": tr.sn_init, "peak": tr.sn_peak_terms,
               "mul": tr.calls[tr.names.index("grassmann.sn_mul")],
               "group_mul": tr.calls[tr.names.index("scgroup.mul")],
               "terms": max(len(x.terms) for row in m.rows() for x in row)}
    """)
    # grassmann.dot builds each of the nine entries once, through the
    # constructor the tracer counts, and calls no SuperNumber product
    assert got["init"] == 9 and got["mul"] == 0 and got["group_mul"] == 1
    assert got["peak"] == got["terms"] > 1


def test_tracer_spans_the_polynomial_layer_of_an_n8_action():
    # a span that reads 0 on working code shows nothing: the polynomial
    # products and substitutions of act_general must still pass through
    # the names the tracer patches
    got = _traced("""
        import random
        from sgk.curves import act_general, random_curve
        from sgk.scgroup import random_sc_matrix
        rng = random.Random(8)
        m, cur = random_sc_matrix(rng, 8), random_curve(rng, 8, 2)
        tr.active = True
        act_general(m, cur)
        tr.active = False
        out = {name: tr.calls[tr.names.index(name)] for name in (
            "curves.act_general", "polyrat.superpoly_mul",
            "polyrat.homog_subst")}
        out["init"] = tr.sn_init
    """)
    assert got["curves.act_general"] == 1
    assert got["polyrat.homog_subst"] == 3
    assert got["polyrat.superpoly_mul"] > 0 and got["init"] > 0
