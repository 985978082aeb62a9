"""Printed forms and hashes of seeded scalars and Grassmann numbers.

Set and dict iteration orders, and with them the order of many printed
reports, follow these hashes, so a change of representation must keep both
the strings and the hashes exactly.  The expected values were generated
before Qi moved from a pair of Fractions to an integer triple.  Hashes of
numbers are not randomized by PYTHONHASHSEED; the literals assume a 64-bit
build.
"""

import random
import sys
from fractions import Fraction

import pytest

from sgk.grassmann import (Qi, RatT, SuperNumber, T_PARAM, random_qi,
                           random_supernumber)


def pinned_values():
    rng = random.Random(20230616)
    vals = []
    for k in range(14):
        re = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        im = Fraction(rng.randint(-60, 60), rng.randint(1, 12)) if k % 3 else 0
        vals.append(Qi(re, im))
    vals += [Qi(0), Qi(-1), Qi(0, -1), Qi(10 ** 20, -(10 ** 19))]
    for _ in range(10):
        a, b, c = (random_qi(rng) for _ in range(3))
        e = random_qi(rng, nonzero=True)
        vals.append((a + b * T_PARAM + c * T_PARAM ** 2) / (T_PARAM + e))
    vals.append(RatT.lift(Qi(Fraction(-2, 3), 5)))
    for k, n in enumerate((0, 2, 2, 4, 4, 4, 8, 8, 8, 8)):
        x = random_supernumber(rng, n, max_terms=6)
        y = random_supernumber(rng, n, max_terms=6, invertible=True)
        vals.append(x * y if k % 2 else x + y)
    for n in (2, 4):
        z = random_supernumber(rng, n, max_terms=4)
        w = SuperNumber(n, {k: v * T_PARAM + 1 for k, v in z.terms.items()})
        vals.append(w * (z + 1))
    return vals


EXPECTED = [
    ('-9/4',
     -576460752303423490),
    ('(-26+4i)',
     1876240054587831975),
    ('(-8+4/9i)',
     8348204827516409839),
    ('-3',
     -3),
    ('(4/3+29i)',
     7498880343436962326),
    ('(-27/4+1i)',
     2618244478835281679),
    ('-44/7',
     -1647030720866924257),
    ('(3/2+50i)',
     2953412316575869505),
    ('(-55/2-34i)',
     -310050651949701180),
    ('-3',
     -3),
    ('(49/11+15i)',
     -5356952655708387626),
    ('(1/11+35/6i)',
     8408459125460444530),
    ('5',
     5),
    ('(37/12+27/10i)',
     -9083146063616660144),
    ('0',
     0),
    ('-1',
     -2),
    ('(0-1i)',
     8374038142897728572),
    ('(100000000000000000000-10000000000000000000i)',
     2581570007003905555),
    ('((3 + -1/2*t + (-4-1i)*t^2)/(-1/2 + t))',
     4128380561238821058),
    ('((-3 + -3*t + (-2+3/2i)*t^2)/(-2 + t))',
     -5930239253803216546),
    ('(((2-1/2i) + (3+3i)*t + (0+1/2i)*t^2)/(-4 + t))',
     3940427716549472805),
    ('(-4 + -3*t)',
     -2199272368247483999),
    ('((-4 + (1-1/2i)*t + 4*t^2)/(-1 + t))',
     6802634006151568772),
    ('((4/3 + -1/2*t^2)/(3 + t))',
     -4544946155357034270),
    ('((-4 + -2*t + 3/2*t^2)/((-2-3/2i) + t))',
     -1575743881307772540),
    ('((4 + (-3-1/2i)*t + -2*t^2)/(4 + t))',
     -6991773885074320585),
    ('((-2/3 + (1/3-1i)*t + 1/3*t^2)/((-2+1i) + t))',
     -8475686218319067969),
    ('((-2 + 2*t)/(-1/3 + t))',
     -409568323237921642),
    ('((-2/3+5i))',
     2995415769035130381),
    ('1/3',
     -8098389114426868071),
    ('-1/3*g1 - 4/3*g1*g2',
     6329412744750393579),
    ('8/3 - g1 + 3/2*g2 + g1*g2',
     4807555216984670060),
    ('(9-3i) + (15-4i)*g1 + (6-2i)*g2 + (3/2-5i)*g3 + (4/3-2i)*g1*g2 + (19/3+7/2i)*g1*g3 - 3*g1*g4 + (3+2i)*g2*g3 + (-3/2+1/2i)*g3*g4 + (-6+2i)*g1*g2*g3 + 2*g1*g2*g4 + (-31/3+1/2i)*g1*g3*g4 - 8*g1*g2*g3*g4',
     4386009634268500836),
    ('1 - 1/3*g1 + (4/3+3/2i)*g1*g3 + 4/3*g1*g4 + 2*g3*g4 + (3/2-3/2i)*g1*g2*g3 + (-3+3/2i)*g1*g2*g4 - 4*g1*g2*g3*g4',
     -132329482082134686),
    ('0',
     -5960289635861184972),
    ('2 - 4/3*g2*g3*g5*g6*g7 - 2/3*g2*g4*g5*g6*g7 - 4*g1*g2*g4*g5*g6*g7*g8',
     3803086257033779074),
    ('(0-1i)*g2*g7 + (2+1i)*g1*g2*g6*g7 + 2*g2*g3*g5*g6 + 4*g1*g2*g3*g7*g8 + 2*g2*g3*g5*g7*g8 + (4/3+6i)*g1*g2*g5*g6*g7*g8',
     -5630872638283581202),
    ('3 + g2*g6 + 4*g4*g7*g8 - 1/3*g5*g6*g7 + 4/3*g1*g2*g4*g8 + 2*g2*g5*g6*g7 - 4*g1*g3*g4*g5*g7 - 3*g2*g3*g6*g7*g8 - 4*g1*g2*g3*g5*g7*g8',
     -4949919744405455723),
    ('6*g2*g3 + (9-9/2i)*g1*g4*g6*g8 + 6*g2*g3*g5*g7*g8 + 12*g1*g2*g3*g5*g7*g8',
     -8713817390539916679),
    ('(1 + 2*t)*g2',
     1323096808710427328),
    ('(1 + 2/3*t)*g1 + (1 + (2-1/2i)*t)*g4 + (4/3-1/2i)*g1*g4 + (1 + 3*t)*g1*g2*g3*g4',
     8212582599945606664),
]


@pytest.mark.skipif(sys.hash_info.width != 64, reason="64-bit hash literals")
def test_printed_forms_and_hashes_are_pinned():
    values = pinned_values()
    assert len(values) == len(EXPECTED)
    kinds = {type(v) for v in values}
    assert kinds == {Qi, RatT, SuperNumber}
    for value, (text, h) in zip(values, EXPECTED):
        assert (str(value), hash(value)) == (text, h)
