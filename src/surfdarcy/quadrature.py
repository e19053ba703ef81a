"""Quadrature rules on reference triangles and tetrahedra.

Triangle rules are tabulated symmetric Gauss rules (all weights positive),
given in barycentric coordinates with weights normalized to sum to 1; a rule
scaled by the triangle area integrates exactly up to its degree.

The two tetrahedron rules, of degree 1 and 2, serve the volume terms: the
stabilization, at degree max(2(k-1), 1) for P_k, and the P1 bulk mass, at
degree 2.  Their weights are positive, so a quadratic form they integrate,
sum_q w_q |D v(x_q)|^2, is positive semidefinite even where the integrand is
not a polynomial (the normal-gradient stabilization with a curved phi_h).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["triangle_rule", "tet_rule"]


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


@lru_cache(maxsize=None)
def triangle_rule(degree: int):
    """Barycentric points (n, 3) and weights (n,) summing to 1, exact to `degree`."""
    for d in sorted(_TRI_GROUPS):
        if d >= degree:
            pts, wts = _symmetrize(_TRI_GROUPS[d])
            return pts, wts
    raise ValueError(f"no triangle rule of degree >= {degree} available")


# The positive tetrahedron rules (barycentric, weights sum to 1): the
# centroid rule and the symmetric 4-point rule of degree 2.
_TET_P2_A = (5.0 - np.sqrt(5.0)) / 20.0
_TET_P2_B = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0


@lru_cache(maxsize=None)
def tet_rule(degree: int):
    """Barycentric points (n, 4) and positive weights (n,) summing to 1,
    exact to `degree`; only degrees <= 2 are available."""
    if degree <= 1:
        return np.array([[0.25, 0.25, 0.25, 0.25]]), np.array([1.0])
    if degree == 2:
        pts = np.full((4, 4), _TET_P2_A)
        np.fill_diagonal(pts, _TET_P2_B)
        return pts, np.full(4, 0.25)
    raise ValueError(f"no tet rule of degree {degree}: the positive rules stop at 2")
