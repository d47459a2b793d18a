"""Rational forms of the enumeration layer's integer helpers.

The solver works on the integral Gram-Schmidt frame and on integer sup
distances; these functions state the same quantities as exact fractions,
so tests can hold the integer code against plain rational algebra.  No
code in the sbl package calls them.
"""

from fractions import Fraction
from typing import Tuple

from sbl.enumeration import PreparedLattice, _nearest, _scaled, _sup_limit


def gs_coords(lat: PreparedLattice, point) -> Tuple[Fraction, ...]:
    """<point, b*_i> / |b*_i|^2 for every row i: the coordinates of the
    point's projection onto the row span in the Gram-Schmidt frame."""
    den, scaled = _scaled(point)
    dets = lat.gram_det
    return tuple(
        Fraction(y, den * dets[j + 1])
        for j, y in enumerate(lat._frame(scaled))
    )


def nearest_plane(lat: PreparedLattice, target) -> Tuple[int, ...]:
    """Babai rounding in the Gram-Schmidt frame; a cheap upper bound."""
    den, scaled = _scaled(target)
    return lat._round(den, lat._frame(scaled))


def min_sup_to(points, center, bound_sq: Fraction):
    """Smallest sup distance to the center among points within
    sqrt(bound_sq) of it, as an exact fraction, with the lexicographically
    least witness; None when no point qualifies."""
    den, cs = _scaled(center)
    best = _nearest(points, den, cs, _sup_limit(bound_sq, den))
    if best is None:
        return None
    return Fraction(best[0], den), best[1]
