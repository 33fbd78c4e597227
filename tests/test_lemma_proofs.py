"""Lemmas 3.2 and 3.3 proved with outward rounding, not sampled.

Lemma 3.2: for every n = 8..64 the partial derivative of the split cost
f (``isoperim.f``) in x,

    f_x(n, a, x) = P'_4(x) - P'_n(a - x),

is positive for a in [3pi/2, (n/2 - 2)pi] and x in (0, min(a - pi, 2pi)).
``isoperim.verify_lemma_3_2`` samples it on a grid.  Here mpmath's
interval context ``iv``, which rounds every operation outward, encloses
a lower bound of f_x on each cell of a cover of the domain, so a cell
whose enclosure lies above 0 is proved positive at every point in it.

The kernel is written from the formula, not imported from ``polygeom``:
with c = cos(pi/n) and u = (2pi + x)/(2n), the perimeter of the regular
n-gon of area x is P_n(x) = 2n acosh(c / cos u), whose derivative in x is

    P'_n(x) = c tan u / sqrt(c^2 - cos^2 u).

The domain's ends are enclosed with ``iv.pi``.  Each n splits a into 4
slabs and, per slab [a0, a1], x into 4 cells of (0, min(a1 - pi, 2pi));
the cells, 16 per n and 912 in all, are boxes of floats taken at the
outer ends of their enclosures, so together they cover the domain.  On
a cell [a0, a1] x [x0, x1] two bounds are enclosed:

- P'_4 is at least c tan u(x0) over the largest value of
  sqrt(c^2 - cos^2 u) on [x0, x1]: for x in (0, 2pi), u lies in
  (pi/4, pi/2), where tan u rises;
- P'_n(a - x) is at most the larger of P'_n at the two ends of
  [max(pi, a0 - x1), a1 - x0], which holds every a - x of the cell's
  domain points (a - x > pi there).  This rests on lemma 3.3's shape
  fact: P''_n changes sign once on (0, (n - 2)pi), negative then
  positive, so P'_n has one minimum and takes its largest value on an
  interval at an end.  That fact is proved below, so the proof of
  lemma 3.2 has its dependency proved.

A cell is certified for a floor when the lower end of the enclosed
difference of the two bounds lies above the floor.  The bound pairs
P'_4's two ends, so it is looser than the sampled minimum (0.8830).

Lemma 3.3: for every n = 4..64, P''_n changes sign once on
(0, (n - 2)pi), negative then positive.  The ``isoperim.verify_lemma_3_3``
docstring derives that, with w = ((n - 2)pi - x)/(2n), the sign of P''_n
is that of

    q_n(x) = cos^4 w - sin^2(pi/n),

and that q_n rises with x, since w falls in (0, pi/2) as x rises; that
monotonicity is the argument, not enclosed here.  So P''_n has one sign
change, at the root x*_n = 2n asin(sqrt(sin(pi/n))) - 2pi of q_n, once
q_n is below 0 somewhere in the domain and above 0 somewhere to its
right.  ``iv`` has no asin, so the bracket is taken from the float x*_n
the verifier reports: q_n is enclosed below 0 at x*_n - 1e-9 span and
above 0 at x*_n + 1e-9 span, span = (n - 2)pi, both inside the domain.
That proves the lemma and places the sign change within 1e-9 span of
the reported x*_n.
"""

import time

import pytest
from mpmath import iv

from fillgeo.isoperim import GridSpec, verify_lemma_3_3

N_VALUES = range(8, 65)
CELLS_PER_AXIS = 4
SHAPE_N_VALUES = range(4, 65)
BRACKET = iv.mpf("1e-9")


def slope(n, x):
    """An enclosure of P'_n over the interval (or point) x."""
    c = iv.cos(iv.pi / n)
    u = (2 * iv.pi + x) / (2 * n)
    return c * iv.tan(u) / iv.sqrt(c**2 - iv.cos(u) ** 2)


def square_slope_floor(x0, x1):
    """An enclosure of a lower bound of P'_4 on [x0, x1], 0 <= x0 < 2pi."""
    c = iv.cos(iv.pi / 4)
    rising = c * iv.tan((2 * iv.pi + x0) / 8)
    u = (2 * iv.pi + iv.mpf([x0, x1])) / 8
    # the largest c^2 - cos^2 u on the cell; at x0 = 0 the least is 0
    widest = iv.sqrt(iv.mpf((c**2 - iv.cos(u) ** 2).b))
    return iv.mpf(rising.a) / iv.mpf(widest.b)


def cells(n):
    """The cells [a0, a1] x [x0, x1] that cover lemma 3.2's domain for n."""
    lo, hi = 3 * iv.pi / 2, (iv.mpf(n) / 2 - 2) * iv.pi
    ends = [lo + (hi - lo) * i / CELLS_PER_AXIS for i in range(CELLS_PER_AXIS + 1)]
    for a0, a1 in zip(ends, ends[1:]):
        top = iv.mpf(min((a1 - iv.pi).b, (2 * iv.pi).b))
        xs = [top * j / CELLS_PER_AXIS for j in range(CELLS_PER_AXIS + 1)]
        for x0, x1 in zip(xs, xs[1:]):
            yield a0.a, a1.b, x0.a, x1.b


def cell_bound(n, a0, a1, x0, x1):
    """The lower end of an enclosure of a lower bound of f_x on the cell."""
    y0 = max(iv.pi.a, (iv.mpf(a0) - iv.mpf(x1)).a)
    y1 = (iv.mpf(a1) - iv.mpf(x0)).b
    largest = max(slope(n, iv.mpf(y0)).b, slope(n, iv.mpf(y1)).b)
    return (square_slope_floor(x0, x1) - iv.mpf(largest)).a


@pytest.fixture(scope="module")
def bounds():
    """(n, cell, bound) for every cell of every n, and the seconds taken."""
    iv.prec = 53
    start = time.perf_counter()
    found = [(n, cell, cell_bound(n, *cell)) for n in N_VALUES for cell in cells(n)]
    return found, time.perf_counter() - start


def test_lemma_3_2_is_proved_on_every_cell(bounds):
    found, seconds = bounds
    assert len(found) == len(N_VALUES) * CELLS_PER_AXIS**2 == 912
    uncertified = [(n, cell) for n, cell, bound in found if not bound > 0]
    assert not uncertified, uncertified
    n, cell, worst = min(found, key=lambda entry: entry[2])
    print(f"lemma 3.2: {len(found)} cells certified in {seconds:.2f} s; worst bound "
          f"{float(worst):.4f} at n = {n}, a in [{float(cell[0]):.4f}, {float(cell[1]):.4f}], "
          f"x in [{float(cell[2]):.4f}, {float(cell[3]):.4f}]")
    assert n == 10 and 0.1 < worst < 0.15, (n, worst)


def test_a_false_floor_is_not_certified(bounds):
    """f_x >= 0.9 is false, and the cells do not certify it: the
    enclosure of f_x at a point of the float grid of
    isoperim.verify_lemma_3_2 (its minimum, n = 8) lies below 0.9."""
    found, _ = bounds
    assert not all(bound > 0.9 for _, _, bound in found)
    n, a, x = 8, iv.mpf(4.889103567149116), iv.mpf(1.725667027139831)
    assert 3 * iv.pi / 2 < a and x < a - iv.pi
    value = slope(4, x) - slope(n, a - x)
    assert 0 < value.a and value.b < 0.9, value


def sign_criterion(n, x):
    """An enclosure of q_n = cos^4 w - sin^2(pi/n) at x, which has the sign of P''_n."""
    w = ((n - 2) * iv.pi - x) / (2 * n)
    return iv.cos(w) ** 4 - iv.sin(iv.pi / n) ** 2


def reported_x_star(n):
    """x*_n as verify_lemma_3_3 computes it, as an exact interval point."""
    return iv.mpf(verify_lemma_3_3(n, GridSpec(samples=100)).details["x_star"])


def test_lemma_3_3_sign_change_is_proved_at_the_reported_x_star():
    iv.prec = 53
    start = time.perf_counter()
    margins = []
    for n in SHAPE_N_VALUES:
        x_star, span = reported_x_star(n), (n - 2) * iv.pi
        left, right = x_star - BRACKET * span, x_star + BRACKET * span
        assert 0 < left.a and right.b < span.a, n
        below, above = sign_criterion(n, left), sign_criterion(n, right)
        assert below.b < 0 < above.a, (n, below, above)
        margins.append((min(-below.b, above.a), n))
    margin, n = min(margins)
    print(f"lemma 3.3: {len(margins)} brackets certified in "
          f"{time.perf_counter() - start:.2f} s; smallest margin {float(margin):.3g} at n = {n}")
    assert len(margins) == 61


def test_a_wrong_side_claim_is_not_certified():
    """The claim that the sign change lies 1e-6 span right of x*_n is
    false, and certified for no n: q_n is never enclosed below 0 there."""
    iv.prec = 53
    for n in SHAPE_N_VALUES:
        x_star, span = reported_x_star(n), (n - 2) * iv.pi
        assert not sign_criterion(n, x_star + iv.mpf("1e-6") * span).b < 0, n
