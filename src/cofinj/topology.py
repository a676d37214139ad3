"""Finite descriptions of the basic open sets of the two pin topologies.

A basic neighborhood is a center element, a finite pin set inside its
domain, and a flavor.  Flavor W collects the elements whose domain shrinks
into the center's and that agree with it on the pins; flavor H additionally
requires the same domain and range (H-equivalence) instead of shrinkage.

The sets themselves are infinite, so containment claims about them are
certified by explicit pin constructions plus randomized membership audits:

* ``product_cover(a, b, F)`` returns pin sets (F1, F2) with
  U_a(F1) * U_b(F2) inside U_{a*b}(F).  F1 must contain, besides F, every
  domain point of a whose image falls outside dom(b): members of U_a(F1) are
  free off the pins, and unpinned they can re-route such a point into the
  domain of the right factor, enlarging the product's domain beyond
  dom(a*b).
* ``inverse_cover(g, F)`` returns (source, target) pin sets with
  (U_g(source))^-1 inside U_{g^-1}(target).  Besides (F)g-style pins, the
  source must pin the two domain neighbors around each maximal run of range
  gaps of g: their images bracket the run between consecutive values, so no
  monotone member of the pinned set can reach it, which is what keeps
  inverted domains inside ran(g).  The brackets keep only monotone members
  out: for an almost-monotone g with range gaps, an almost-monotone member
  may send an unpinned point into one, and ``audit_inverse_cover`` then
  reports a failure.

All of these read gap sets as sorted maximal (lo, hi) runs and elements as
their translation pieces, so membership, the covers and ``separate`` cost
time in the number of segments or middle points, not in the gap widths.

On the monotone submonoid an H-flavor neighborhood with at least one pin is
the singleton of its center: a monotone bijection between two fixed cofinite
sets is determined by a single value.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import chain

from .core import (
    InvalidElementError,
    MonotoneElement,
    NEG_INF,
    POS_INF,
    _check_int,
    _graft,
    _overlaps,
    _runs_within,
    _translation_off,
    _window,
)
from . import almost as _almost


class BasicNeighborhood:
    """U_center(pins) when flavor is 'W', W_center(pins) when flavor is 'H'."""

    # _draw holds the draw function of the neighborhood's sampling plan once sample_member builds it
    __slots__ = ("center", "pins", "flavor", "_draw")

    def __init__(self, center, pins, flavor: str = "W"):
        if flavor not in ("W", "H"):
            raise InvalidElementError(f"flavor must be 'W' or 'H', got {flavor!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "pins", _checked_pins(pins, center, "the center's domain"))
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "_draw", None)

    def __setattr__(self, name, value):
        raise AttributeError("BasicNeighborhood is immutable")

    def __reduce__(self):
        # copies and pickles go through the validating constructor and leave the plan behind
        return (type(self), (self.center, self.pins, self.flavor))

    def __contains__(self, elem) -> bool:
        return member(self, elem)

    def __eq__(self, other):
        if isinstance(other, BasicNeighborhood):
            return (
                self.flavor == other.flavor
                and self.pins == other.pins
                and _almost.canonicalize(self.center) == _almost.canonicalize(other.center)
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.flavor, self.pins, _almost.canonicalize(self.center)))

    def to_text(self) -> str:
        name = "nbhd" if self.flavor == "W" else "nbhd_h"
        pins = ", ".join(str(p) for p in sorted(self.pins))
        return f"{name}({_almost.canonicalize(self.center)!r}; {pins})"

    def __repr__(self):
        return self.to_text()


def _checked_pins(pins, elem, domain: str) -> frozenset:
    """Outside pins as a frozenset of integers in dom(elem); ``domain`` names dom(elem) in the message."""
    try:
        pins = frozenset(pins)
    except TypeError:
        raise InvalidElementError(f"pins must be an iterable of integers, got {pins!r}") from None
    for x in pins:
        _check_int(x, "pins must be integers")
        if x not in elem:
            raise InvalidElementError(f"pin {x} is outside {domain}")
    return pins


def member(nbhd: BasicNeighborhood, elem) -> bool:
    c = nbhd.center
    if nbhd.flavor == "W":
        if not _runs_within(c._dom_runs(), elem._dom_runs()):
            return False
    else:
        if c._dom_runs() != elem._dom_runs() or c._ran_runs() != elem._ran_runs():
            return False
    return all(elem(x) == c(x) for x in nbhd.pins)


def _extent(elem, pins=()) -> int:
    """The largest |x| over the pins, the finite piece ends and their images.

    An almost-monotone total translation also counts its window (0, 1); a
    monotone one adds no ends.
    """
    pieces = elem.pieces
    ends = [v for lo, hi, o in pieces for e in (lo, hi) if abs(e) != POS_INF for v in (e, e + o)]
    if isinstance(elem, _almost.AlmostMonotoneElement):
        d, u = _window(pieces)
        ends += (d, d + pieces[0][2], u, u + pieces[-1][2])
    return max(map(abs, chain(pins, ends)), default=0)


# -- continuity certificates -------------------------------------------------------


def product_cover(a, b, pins):
    """Pin sets (F1, F2) with U_a(F1) * U_b(F2) contained in U_{a*b}(pins)."""
    pins = _checked_pins(pins, a * b, "dom of the product")
    # the escapes: a.inverse() applied to the domain gaps of b it is defined on
    escapes = set()
    for lo, hi, (_, _, off), _ in _overlaps(a.inverse().pieces, b._dom_runs()):
        escapes.update(range(lo + off, hi + off + 1))
    return pins | escapes, frozenset(map(a, pins))


def inverse_cover(g, pins):
    """Pin sets (source, target) with (U_g(source))^-1 contained in U_{g^-1}(target).

    The source is the pins plus the preimages of the two range points
    around each maximal run of range gaps of g.  Those brackets keep only
    monotone members out of g's range gaps, so for an almost-monotone g with
    range gaps the containment holds for the monotone members alone.
    """
    pins = _checked_pins(pins, g, "the domain")
    ginv = g.inverse()
    brackets = set()
    for lo, hi in g._ran_runs():
        brackets.add(ginv(lo - 1))
        brackets.add(ginv(hi + 1))
    src = pins | brackets
    return src, frozenset(map(g, src))


def separate(a, b):
    """Pin sets (F1, F2) with U_a(F1) and U_b(F2) disjoint; requires a != b.

    Either the maps disagree at a common domain point (pin it on both sides)
    or one domain misses a point of the other (pin it on the side that has
    it; the other side excludes it by domain shrinkage).  The witness point
    is the smallest available by (|x|, x).
    """
    if _almost.canonicalize(a) == _almost.canonicalize(b):
        raise InvalidElementError("cannot separate an element from itself")
    overlaps = _overlaps(a.pieces, b.pieces)
    x = _nearest_zero((lo, hi) for lo, hi, p, q in overlaps if p[2] != q[2])
    if x is not None:
        return frozenset({x}), frozenset({x})
    x = _nearest_zero(_runs_xor(a._dom_runs(), b._dom_runs()))
    if x in a:
        return frozenset({x}), frozenset()
    return frozenset(), frozenset({x})


def _nearest_zero(intervals):
    """The (|x|, x)-smallest integer in the nonempty intervals (lo, hi), or None when there are none.

    Bounds may be infinite; the answer never is.
    """
    return min(
        (lo if lo > 0 else hi if hi < 0 else 0 for lo, hi in intervals),
        key=lambda x: (abs(x), x),
        default=None,
    )


def _runs_xor(ra, rb) -> list:
    """The maximal (lo, hi) runs of the points in exactly one of two run lists."""
    # each run flips membership at lo and back at hi + 1; equal flips from both lists cancel
    flips = []
    for p in sorted(p for lo, hi in ra + rb for p in (lo, hi + 1)):
        if flips and flips[-1] == p:
            flips.pop()
        else:
            flips.append(p)
    return [(lo, end - 1) for lo, end in zip(flips[::2], flips[1::2])]


# -- member sampling for audits ------------------------------------------------------


def sample_member(nbhd: BasicNeighborhood, rng: random.Random):
    """A random member of the neighborhood.

    W flavor: keep a random cofinite subset of the center's domain (always
    keeping the pins), then redraw the values zone by zone between
    consecutive pins; zones between two pins may be reshuffled
    non-monotonically when the ambient monoid is the almost-monotone one.
    H flavor: conjugate the center by finite permutations of its domain and
    range fixing the pins and their images.

    The first call on a neighborhood builds its plan: the window [-w, w]
    around the pins and the finite piece ends, the pin values, and every
    domain point of the window with its zone.  The neighborhood keeps the
    plan's draw function, so later calls only consume ``rng``; a draw from a
    reused neighborhood equals one from a fresh neighborhood with the same
    rng state.  Plans and W draws take time linear in the window width; an
    H draw grafts its permutations onto gap runs, so its cost follows the pieces.
    """
    draw = nbhd._draw
    if draw is None:
        draw = _plan(nbhd)
        object.__setattr__(nbhd, "_draw", draw)
    return draw(rng)


def _plan(nbhd):
    """The neighborhood's draw function, rng -> member, with all rng-free work done up front."""
    if nbhd.flavor == "H":
        return _h_plan(nbhd)
    if isinstance(nbhd.center, MonotoneElement):
        return _w_monotone_plan(nbhd)
    return _w_almost_plan(nbhd)


def _window_points(elem, w: int) -> list:
    """The domain points of elem in [-w, w], increasing, read off its pieces."""
    return [x for lo, hi, _ in elem.pieces for x in range(max(lo, -w), min(hi, w) + 1)]


def _w_monotone_plan(nbhd):
    c = nbhd.center
    w = _extent(c, nbhd.pins) + 4
    pins = sorted(nbhd.pins)
    pinvals = {x: c(x) for x in pins}
    # zone i lies between pins i - 1 and i; its bounds are their values, None beyond the outer pins
    qs = [None, *pinvals.values(), None]
    zones = list(zip(qs, qs[1:]))
    # each non-pin point with its zone and whether it is always kept (the window ends are)
    points = [
        (x, bisect_left(pins, x), x == -w or x == w) for x in _window_points(c, w) if x not in pinvals
    ]

    def draw(rng):
        kept = [[] for _ in zones]
        for x, z, always in points:
            if always or rng.random() >= 0.25:
                kept[z].append(x)
        # redraw values zone by zone; pin values bracket each inner zone
        vals = dict(pinvals)
        for (qlo, qhi), zone in zip(zones, kept):
            if qlo is not None and qhi is not None:
                zone = sorted(rng.sample(zone, min(len(zone), qhi - qlo - 1)))
                vals.update(zip(zone, sorted(rng.sample(range(qlo + 1, qhi), len(zone)))))
            elif qhi is not None:
                v = qhi
                for x in reversed(zone):
                    v -= rng.randint(1, 2)
                    vals[x] = v
            else:
                v = qlo if qlo is not None else -w + rng.randint(-3, 1)
                for x in zone:
                    v += rng.randint(1, 2)
                    vals[x] = v
        tails = ((NEG_INF, -w, vals.pop(-w) + w), (w, POS_INF, vals.pop(w) - w))
        # the validating constructor: a draw checks what it builds
        return MonotoneElement(_graft(tails, vals.items()))

    return draw


def _w_almost_plan(nbhd):
    c = nbhd.center
    w = _extent(c, nbhd.pins) + 4
    pinvals = {x: c(x) for x in nbhd.pins}
    taken = set(pinvals.values())
    inner = [x for x in _window_points(c, w - 1) if x not in pinvals]
    anchor_lo = min(taken, default=0)
    anchor_hi = max(taken, default=0)
    always = len(pinvals) + 2  # the pins and the two window ends

    def draw(rng):
        interior = [x for x in inner if rng.random() >= 0.25]
        # tail anchors clear of every pin value, then an arbitrary injective middle
        spread = len(interior) + always
        vleft = anchor_lo - spread - rng.randint(1, 3)
        vright = anchor_hi + spread + rng.randint(1, 3)
        pool = [v for v in range(vleft + 1, vright) if v not in taken]
        mid = dict(pinvals)
        mid.update(zip(interior, rng.sample(pool, len(interior))))
        return _almost.make_almost(-w, vleft + w, w, vright - w, mid)

    return draw


def _perm_of_cofinite(gap_runs, moved: dict) -> _almost.AlmostMonotoneElement:
    """The bijection of Z minus the sorted gap runs that applies the finite permutation ``moved``."""
    base = _translation_off(sorted(gap_runs + [(x, x) for x in moved]))
    return _almost.AlmostMonotoneElement._trusted(_graft(base, moved.items()))


def _random_perm(pts, rng):
    """A random permutation of at most 4 of the increasing points ``pts``, without fixed points."""
    n = rng.randint(0, min(4, len(pts)))
    chosen = rng.sample(pts, n)
    img = chosen[:]
    rng.shuffle(img)
    return {x: y for x, y in zip(chosen, img) if x != y}


def _h_plan(nbhd):
    c = _almost.as_almost(nbhd.center)
    w = _extent(c, nbhd.pins) + 3
    pin_images = {c(x) for x in nbhd.pins}
    dom_pool = [x for x in _window_points(c, w) if x not in nbhd.pins]
    ran_pool = [y for y in _window_points(_almost.inverse_almost(c), w) if y not in pin_images]
    dom_runs, ran_runs = c._dom_runs(), c._ran_runs()

    def draw(rng):
        sigma = _perm_of_cofinite(dom_runs, _random_perm(dom_pool, rng))
        rho = _perm_of_cofinite(ran_runs, _random_perm(ran_pool, rng))
        return _almost.compose_almost(_almost.compose_almost(sigma, c), rho)

    return draw


# -- randomized audits ---------------------------------------------------------------


def audit_product_cover(a, b, pins, rng, samples: int = 20) -> bool:
    """Sampled members of the two cover sets always multiply into the target set."""
    f1, f2 = product_cover(a, b, pins)
    n1 = BasicNeighborhood(a, f1, "W")
    n2 = BasicNeighborhood(b, f2, "W")
    target = BasicNeighborhood(a * b, pins, "W")
    for _ in range(samples):
        g1 = sample_member(n1, rng)
        g2 = sample_member(n2, rng)
        if not member(target, g1 * g2):
            return False
    return True


def audit_inverse_cover(g, pins, rng, samples: int = 20) -> bool:
    """Inverses of sampled members of the source set land in the target set."""
    src, tgt = inverse_cover(g, pins)
    n = BasicNeighborhood(g, src, "W")
    target = BasicNeighborhood(g.inverse(), tgt, "W")
    for _ in range(samples):
        d = sample_member(n, rng)
        if not member(target, d.inverse()):
            return False
    return True


def audit_separate(a, b, rng, samples: int = 20) -> bool:
    """Sampled members of the two separating sets never land in the other set."""
    f1, f2 = separate(a, b)
    n1 = BasicNeighborhood(a, f1, "W")
    n2 = BasicNeighborhood(b, f2, "W")
    for _ in range(samples):
        if member(n2, sample_member(n1, rng)):
            return False
        if member(n1, sample_member(n2, rng)):
            return False
    return True
