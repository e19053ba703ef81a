"""Quadrature rules are checked against closed-form monomial integrals.

Reference values use the factorial formula for barycentric monomials:
integral over a simplex of lam0^a * lam1^b * ... equals
d! * vol * a! b! ... / (a + b + ... + d)!.
"""

import math
from itertools import product

import numpy as np
import pytest

from surfdarcy.quadrature import tet_rule, triangle_rule


def _tri_monomial_exact(a, b, c):
    # integral over the unit reference triangle (area 1/2)
    return (
        2.0
        * 0.5
        * math.factorial(a)
        * math.factorial(b)
        * math.factorial(c)
        / math.factorial(a + b + c + 2)
    )


def _tet_monomial_exact(a, b, c, d):
    return (
        6.0
        * (1.0 / 6.0)
        * math.factorial(a)
        * math.factorial(b)
        * math.factorial(c)
        * math.factorial(d)
        / math.factorial(a + b + c + d + 3)
    )


@pytest.mark.parametrize("degree", [1, 2, 4, 6])
def test_triangle_rule_exactness(degree):
    pts, wts = triangle_rule(degree)
    assert np.all(wts > 0)
    assert wts.sum() == pytest.approx(1.0, abs=1e-12)
    for a, b, c in product(range(degree + 1), repeat=3):
        if a + b + c > degree:
            continue
        approx = wts @ (pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
        # rule weights are normalized by the reference area
        exact = _tri_monomial_exact(a, b, c) / 0.5
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-13), (a, b, c)


@pytest.mark.parametrize("degree", [1, 2])
def test_tet_rule_exactness(degree):
    pts, wts = tet_rule(degree)
    assert np.all(wts > 0)
    assert wts.sum() == pytest.approx(1.0, abs=1e-12)
    for exps in product(range(degree + 1), repeat=4):
        if sum(exps) > degree:
            continue
        mono = np.ones(len(pts))
        for k, e in enumerate(exps):
            mono *= pts[:, k] ** e
        approx = wts @ mono
        exact = _tet_monomial_exact(*exps) / (1.0 / 6.0)
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-13), exps


def test_positive_tet_rule_unavailable_above_degree_two():
    with pytest.raises(ValueError):
        tet_rule(3)


def test_triangle_rule_degree_upgrade():
    pts, _ = triangle_rule(3)  # falls through to the degree-4 rule
    assert len(pts) == 6
