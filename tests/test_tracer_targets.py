"""The benchmark tracer (perfbench/tracer.py) patches sgk by name at run time.

A rename or merge in the package would otherwise surface only when a traced
benchmark run fails, so every name the tracer patches is resolved here the
way its `install` resolves it, without patching anything.
"""

import importlib
import importlib.util
import pathlib

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
