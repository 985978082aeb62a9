"""Per-layer tracing of the sgk package, installed from outside at run time.

`install(tracer)` wraps public functions and methods of every sgk module in
place: module-level names are replaced in every sgk namespace that holds
them (so `from .x import f` copies are covered too), methods are replaced on
their class, and the built-in check functions are replaced in `cli.SUITE`.
Nothing under `src/` is edited.

Spanned layer functions record one span each: name, start, end, parent span
and item id.  Spans are kept in flat arrays and written out only when the run
ends.  A layer's self time is its span's duration minus the time covered by
its direct child spans.  The hottest scalar operations (`Qi` arithmetic and
`SuperNumber` construction) are counted only, because a span per operation
would cost more than the operation.
"""

import array
import json
import sys
import time


# Spanned functions: metric name -> [(module, "func") or (module, "Class.method")].
# Several entries under one name are aggregated, as for operator families.
SPANNED = {
    "grassmann.sn_mul": [("grassmann", "SuperNumber.__mul__")],
    "grassmann.sn_invert": [("grassmann", "SuperNumber.invert")],
    "grassmann.sn_sqrt": [("grassmann", "SuperNumber.sqrt_even")],
    "grassmann.ratt_ops": [("grassmann", "RatT." + m) for m in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__pow__")],
    "grassmann.qipoly_gcd": [("grassmann", "QiPoly.gcd")],
    "polyrat.superpoly_mul": [("polyrat", "SuperPoly.__mul__")],
    "polyrat.homog_subst": [("polyrat", "homog_subst")],
    "polyrat.scalarpoly_gcd": [("polyrat", "ScalarPoly.gcd")],
    "linalg.field_rank": [("linalg", "field_rank")],
    "linalg.solve_body_invertible": [("linalg", "solve_body_invertible")],
    "linalg.module_rank_report": [("linalg", "module_rank_report")],
    "superspace.point_ops": [("superspace", f) for f in (
        "ProjPoint.scale", "ProjPoint.chart1", "ProjPoint.chart2",
        "ProjPoint.__eq__", "ChartPoint.to_proj", "ChartPoint.__eq__",
        "as_proj", "proj_equal", "torus_act_point", "preferred_chart",
        "odd_normal_part", "reduce_point", "reduced_bodies_distinct",
        "point_from_scalars")],
    "scgroup.mul": [("scgroup", "SCMatrix.mul")],
    "scgroup.inverse": [("scgroup", "SCMatrix.inverse")],
    "scgroup.decompose": [("scgroup", "SCMatrix.decompose")],
    "scgroup.check": [("scgroup", "SCMatrix.check")],
    "scgroup.act_point": [("scgroup", "act_point")],
    "scgroup.three_point_normalize": [("scgroup", "three_point_normalize")],
    "bundles.susy1_matrix": [("bundles", "susy1_matrix")],
    "bundles.section_ops": [("bundles", f) for f in (
        "Section.frame2", "Section.eval_at", "sl2_act_section",
        "spinor_section", "pair_section_with_curve", "wronskian")],
    "curves.act_general": [("curves", "act_general")],
    "curves.act_sl2_on_curve": [("curves", "act_sl2_on_curve")],
    "curves.act_susy_on_curve": [("curves", "act_susy_on_curve")],
    "curves.torus_act_curve": [("curves", "torus_act_curve")],
    "curves.curve_eq": [("curves", "SuperCurve.__eq__")],
    "curves.same_orbit": [("curves", "same_orbit")],
    "trees.glue": [("trees", "glue")],
    "trees.validate": [("trees", "validate")],
    "trees.torus_act_tree": [("trees", "torus_act_tree")],
    "cli.parse": [("cli", "parse_text")],
    "cli.eval": [("cli", "Evaluator.eval")],
    "cli.ratfunc_ops": [("cli", "RatFunc." + m) for m in (
        "add", "sub", "mul", "div", "neg", "pow")],
    # cli.check wraps each built-in check function in cli.SUITE (see install)
    "cli.check": [],
}

QI_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
          "__rmul__", "__truediv__", "__rtruediv__", "__neg__")

_DECOMPOSE_FIELDS = ("a", "b", "c", "d", "e", "alpha", "beta", "gamma",
                     "delta")


class Tracer:
    """Span and counter store; only records while `active` is true."""

    def __init__(self):
        self.active = False
        self.item = -1
        self.names = list(SPANNED)
        self.calls = [0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        # open spans: [name id, start, child time, span index]
        self.stack = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_item = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.qi_ops = 0
        self.sn_init = 0
        self.sn_peak_terms = 0
        self.sn_mul_pairs = 0
        self.sn_mul_useful = 0
        self.reports = 0
        self.reports_nondegenerate = 0
        self.decompose_seen = set()
        self.decompose_repeats = 0
        self.check_calls = {}

    def span(self, name, fn):
        """Wrap `fn` so that each active call records one span under `name`."""
        nid = self.names.index(name)
        tr = self
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(tr.span_start)
            parent = stack[-1][3] if stack else -1
            tr.span_name.append(nid)
            tr.span_parent.append(parent)
            tr.span_item.append(tr.item)
            tr.span_end.append(0.0)
            frame = [nid, 0.0, 0.0, idx]
            stack.append(frame)
            start = frame[1] = clock()
            tr.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tr.errors[nid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tr.span_end[idx] = end
                tr.calls[nid] += 1
                tr.self_s[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results

    def metrics(self):
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = (self.calls[i], "count")
            out[name + ".self_s"] = (self.self_s[i], "s")
            out[name + ".errors"] = (self.errors[i], "count")
        out["grassmann.qi_ops.calls"] = (self.qi_ops, "count")
        out["grassmann.sn_init.calls"] = (self.sn_init, "count")
        out["grassmann.sn_peak_terms"] = (self.sn_peak_terms, "count")
        out["grassmann.sn_mul.pairs"] = (self.sn_mul_pairs, "count")
        out["grassmann.sn_mul.useful_ratio"] = (
            _ratio(self.sn_mul_useful, self.sn_mul_pairs), "ratio")
        ratt = self.calls[self.names.index("grassmann.ratt_ops")]
        out["grassmann.ratt_share"] = (_ratio(ratt, ratt + self.qi_ops),
                                       "ratio")
        out["linalg.module_rank_report.nondegenerate_ratio"] = (
            _ratio(self.reports_nondegenerate, self.reports), "ratio")
        dec = self.calls[self.names.index("scgroup.decompose")]
        out["scgroup.decompose.repeat_share"] = (
            _ratio(self.decompose_repeats, dec), "ratio")
        return out

    def write_spans(self, path):
        """Write the span arrays (binary, native order) and a JSON index."""
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.span_start),
                       "byteorder": sys.byteorder,
                       "arrays": [["name", "i"], ["parent", "i"],
                                  ["item", "i"], ["start", "d"],
                                  ["end", "d"]],
                       "check_calls": self.check_calls}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_item,
                        self.span_start, self.span_end):
                arr.tofile(fh)


def _ratio(num, den):
    return num / den if den else 0.0


def _resolve(mod, dotted):
    owner = mod
    parts = dotted.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def _replace_everywhere(modules, original, wrapper):
    """Point every sgk namespace that holds `original` at `wrapper`."""
    hits = 0
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)
                hits += 1
    return hits


def install(tr):
    """Patch the already imported sgk package for tracing with `tr`."""
    from sgk import cli, grassmann

    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "sgk" or k.startswith("sgk."))]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

    for name, targets in SPANNED.items():
        for modname, dotted in targets:
            owner, attr = _resolve(by_name[modname], dotted)
            original = getattr(owner, attr)
            if name == "grassmann.sn_mul":
                wrapper = _sn_mul_wrapper(tr, original)
            elif name == "linalg.module_rank_report":
                wrapper = _report_wrapper(tr, original)
            elif name == "scgroup.decompose":
                wrapper = _decompose_wrapper(tr, original)
            else:
                wrapper = tr.span(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            elif not _replace_everywhere(modules, original, wrapper):
                raise RuntimeError("nothing to patch for %s" % dotted)

    for attr in QI_OPS:
        setattr(grassmann.Qi, attr,
                _qi_counter(tr, getattr(grassmann.Qi, attr)))
    grassmann.SuperNumber.__init__ = _sn_init_counter(
        tr, grassmann.SuperNumber.__init__)

    for i, (cid, anchor, fn) in enumerate(cli.SUITE):
        cli.SUITE[i] = (cid, anchor, _check_wrapper(tr, cid, fn))


def _qi_counter(tr, fn):
    def wrapper(*args):
        if tr.active:
            tr.qi_ops += 1
        return fn(*args)
    return wrapper


def _sn_init_counter(tr, fn):
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        if tr.active:
            tr.sn_init += 1
            k = len(self.terms)
            if k > tr.sn_peak_terms:
                tr.sn_peak_terms = k
    return wrapper


def _mask(idx):
    m = 0
    for i in idx:
        m |= 1 << i
    return m


def _sn_mul_wrapper(tr, fn):
    from sgk.grassmann import SuperNumber, is_scalar, scalar_is_zero, \
        as_scalar
    spanned = tr.span("grassmann.sn_mul", fn)

    def wrapper(self, other):
        if tr.active:
            # term pairs the product loop will attempt, and how many of them
            # are disjoint monomials; counted outside the span's interval
            if isinstance(other, SuperNumber):
                bmasks = [_mask(k) for k in other.terms]
            elif is_scalar(other) and not scalar_is_zero(as_scalar(other)):
                bmasks = [0]
            else:
                bmasks = []
            amasks = [_mask(k) for k in self.terms]
            tr.sn_mul_pairs += len(amasks) * len(bmasks)
            useful = 0
            for ma in amasks:
                for mb in bmasks:
                    if not ma & mb:
                        useful += 1
            tr.sn_mul_useful += useful
        return spanned(self, other)
    return wrapper


def _report_wrapper(tr, fn):
    spanned = tr.span("linalg.module_rank_report", fn)

    def wrapper(*args, **kwargs):
        rep = spanned(*args, **kwargs)
        if tr.active:
            tr.reports += 1
            if not rep.degenerate:
                tr.reports_nondegenerate += 1
        return rep
    return wrapper


def _decompose_wrapper(tr, fn):
    spanned = tr.span("scgroup.decompose", fn)

    def wrapper(self):
        if tr.active:
            key = (self.n,) + tuple(
                frozenset(getattr(self, f).terms.items())
                for f in _DECOMPOSE_FIELDS)
            if key in tr.decompose_seen:
                tr.decompose_repeats += 1
            else:
                tr.decompose_seen.add(key)
        return spanned(self)
    return wrapper


def _check_wrapper(tr, cid, fn):
    spanned = tr.span("cli.check", fn)

    def wrapper(rng):
        if tr.active:
            tr.check_calls[cid] = tr.check_calls.get(cid, 0) + 1
        return spanned(rng)
    return wrapper
