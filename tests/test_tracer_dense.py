"""The benchmark tracer's counters on a dense product at n = 8.

At n = 8 a SuperNumber with only Qi coefficients is held in integer form,
so its product builds no Qi per term pair.  The tracer still has to see that
product built once through the constructor it counts, and read the product's
term count and its term pairs off the `.terms` view.  Runs in a fresh
interpreter, as in test_tracer_targets.
"""

from test_tracer_targets import _traced


def test_tracer_counts_a_dense_product_at_n8():
    got = _traced("""
        import itertools, random
        from sgk.grassmann import SuperNumber, random_qi
        rng = random.Random(8)
        keys = [k for size in range(9)
                for k in itertools.combinations(range(1, 9), size)]
        x, y = (SuperNumber(8, {k: random_qi(rng, nonzero=True)
                                for k in keys if rng.random() < 0.4})
                for _ in range(2))
        tr.active = True
        p = x * y
        tr.active = False
        out = {"init": tr.sn_init, "peak": tr.sn_peak_terms,
               "mul": tr.calls[tr.names.index("grassmann.sn_mul")],
               "pairs": tr.sn_mul_pairs, "terms": len(p.terms),
               "x": len(x.terms), "y": len(y.terms)}
    """)
    assert got["init"] == 1 and got["mul"] == 1
    assert got["peak"] == got["terms"] > 100
    assert got["pairs"] == got["x"] * got["y"] > 5000
