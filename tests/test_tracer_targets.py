"""The benchmark tracer (perfbench/tracer.py) patches sgk by name at run time.

A rename or merge in the package would otherwise surface only when a traced
benchmark run fails, so every name the tracer patches is resolved here the
way its `install` resolves it, without patching anything.  A second test
installs the tracer in a fresh interpreter and checks that a product, which
SuperNumber builds through its trusted constructor, still reaches the
construction counters.
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


def test_tracer_counts_products_from_the_trusted_constructor():
    # a fresh interpreter, so the patching leaves this process alone
    script = textwrap.dedent("""
        import importlib.util, json, sys
        spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        import sgk
        from sgk.grassmann import Qi, SuperNumber
        tr = tracer.Tracer()
        tracer.install(tr)
        x = SuperNumber(4, {(): 1, (1,): 2, (2, 3): Qi(0, 1)})
        y = SuperNumber(4, {(): 3, (4,): -1, (1, 2): 5})
        tr.active = True
        p = x * y
        tr.active = False
        print(json.dumps({"init": tr.sn_init, "peak": tr.sn_peak_terms,
                          "mul": tr.calls[tr.names.index("grassmann.sn_mul")],
                          "terms": len(p.terms)}))
    """)
    src = str(pathlib.Path(sgk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", script, str(TRACER)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    # one product, one SuperNumber built, and the counter saw its 7 terms
    assert got == {"init": 1, "peak": 7, "mul": 1, "terms": 7}
