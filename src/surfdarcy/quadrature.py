"""Quadrature rules on reference triangles and tetrahedra.

Triangle rules are tabulated symmetric Gauss rules (all weights positive),
given in barycentric coordinates with weights normalized to sum to 1; a rule
scaled by the triangle area integrates exactly up to its degree.

Tetrahedron rules of low degree (1, 2) are tabulated positive rules used for
stabilization assembly, where positive weights guarantee a positive
semidefinite quadratic form for non-polynomial integrands.  Higher degrees
use Grundmann-Moller combinatorial rules (some negative weights, exact for
polynomials, which is all they are used for).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial

import numpy as np

__all__ = ["triangle_rule", "tet_rule", "TRIANGLE_MAX_DEGREE"]


def _symmetrize(groups):
    """Expand (bary-coords, weight) orbit groups into point/weight arrays."""
    pts = []
    wts = []
    for coords, w in groups:
        seen = set()
        for perm in _permutations3(coords):
            if perm in seen:
                continue
            seen.add(perm)
            pts.append(perm)
            wts.append(w)
    return np.array(pts, dtype=float), np.array(wts, dtype=float)


def _permutations3(coords):
    a, b, c = coords
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


# Dunavant symmetric triangle rules; barycentric orbits with weights summing to 1.
_TRI_GROUPS = {
    1: [((1 / 3, 1 / 3, 1 / 3), 1.0)],
    2: [((2 / 3, 1 / 6, 1 / 6), 1 / 3)],
    4: [
        ((0.108103018168070, 0.445948490915965, 0.445948490915965), 0.223381589678011),
        ((0.816847572980459, 0.091576213509771, 0.091576213509771), 0.109951743655322),
    ],
    6: [
        ((0.873821971016996, 0.063089014491502, 0.063089014491502), 0.050844906370207),
        ((0.501426509658179, 0.249286745170910, 0.249286745170910), 0.116786275726379),
        ((0.636502499121399, 0.310352451033785, 0.053145049844816), 0.082851075618374),
    ],
}
TRIANGLE_MAX_DEGREE = max(_TRI_GROUPS)


@lru_cache(maxsize=None)
def triangle_rule(degree: int):
    """Barycentric points (n, 3) and weights (n,) summing to 1, exact to `degree`."""
    for d in sorted(_TRI_GROUPS):
        if d >= degree:
            pts, wts = _symmetrize(_TRI_GROUPS[d])
            return pts, wts
    raise ValueError(f"no triangle rule of degree >= {degree} available")


# Positive-weight tetrahedron rules (barycentric, weights sum to 1).
_TET_P2_A = (5.0 - np.sqrt(5.0)) / 20.0
_TET_P2_B = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0


def _tet_positive(degree: int):
    if degree <= 1:
        return np.array([[0.25, 0.25, 0.25, 0.25]]), np.array([1.0])
    if degree == 2:
        pts = np.full((4, 4), _TET_P2_A)
        np.fill_diagonal(pts, _TET_P2_B)
        return pts, np.full(4, 0.25)
    return None


@lru_cache(maxsize=None)
def _grundmann_moller_tet(s: int):
    """Grundmann-Moller rule of index s on the unit tet, degree 2s + 1.

    Returned weights sum to 1 (normalized by the reference volume 1/6).
    """
    n = 3
    d = 2 * s + 1
    pts = []
    wts = []
    for i in range(s + 1):
        denom = d + n - 2 * i
        w = (
            Fraction((-1) ** i)
            * Fraction(denom**d, 4**s)
            / (factorial(i) * factorial(d + n - i))
        )
        for beta in _compositions(s - i, n + 1):
            pts.append([Fraction(2 * b + 1, denom) for b in beta])
            wts.append(w)
    wts = np.array([float(w * 6) for w in wts])
    return np.array(pts, dtype=float), wts


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for slots in combinations_with_replacement(range(parts), total):
        beta = [0] * parts
        for j in slots:
            beta[j] += 1
        yield tuple(beta)


@lru_cache(maxsize=None)
def tet_rule(degree: int, positive: bool = False):
    """Barycentric points (n, 4) and weights (n,) summing to 1, exact to `degree`.

    With positive=True only degrees <= 2 are available (guaranteed positive
    weights); otherwise a Grundmann-Moller rule of sufficient degree is used.
    """
    if positive:
        rule = _tet_positive(degree)
        if rule is None:
            raise ValueError(f"no positive tet rule of degree {degree}")
        return rule
    if degree <= 2:
        return _tet_positive(degree)
    return _grundmann_moller_tet(degree // 2)
