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
  member of the pinned set can reach it, which is what keeps inverted
  domains inside ran(g).

All of these read gap sets as sorted maximal (lo, hi) runs and elements as
their translation pieces, so membership, the covers and ``separate`` cost
time in the number of segments or middle points, not in the gap widths.

On the monotone submonoid an H-flavor neighborhood with at least one pin is
the singleton of its center: a monotone bijection between two fixed cofinite
sets is determined by a single value.
"""

from __future__ import annotations

import random
from itertools import chain

from .core import (
    InvalidElementError,
    MonotoneElement,
    NEG_INF,
    POS_INF,
    _is_int,
    _overlaps,
    _runs_within,
    identity,
    normalize,
)
from . import almost as _almost


class BasicNeighborhood:
    """U_center(pins) when flavor is 'W', W_center(pins) when flavor is 'H'."""

    __slots__ = ("center", "pins", "flavor")

    def __init__(self, center, pins, flavor: str = "W"):
        if flavor not in ("W", "H"):
            raise InvalidElementError(f"flavor must be 'W' or 'H', got {flavor!r}")
        pins = frozenset(pins)
        for x in pins:
            if not _is_int(x):
                raise InvalidElementError(f"pins must be integers, got {x!r}")
            if x not in center:
                raise InvalidElementError(f"pin {x} is outside the center's domain")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "pins", pins)
        object.__setattr__(self, "flavor", flavor)

    def __setattr__(self, name, value):
        raise AttributeError("BasicNeighborhood is immutable")

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
    """The largest |x| over the pins, the finite piece ends and their images."""
    pieces = elem._pieces()
    if len(pieces) == 1 and isinstance(elem, _almost.AlmostMonotoneElement):
        # an almost-monotone total translation reports the window (0, 1)
        pieces = ((NEG_INF, 0, pieces[0][2]), (1, POS_INF, pieces[0][2]))
    ends = [v for lo, hi, o in pieces for e in (lo, hi) if abs(e) != POS_INF for v in (e, e + o)]
    return max(map(abs, chain(pins, ends)), default=0)


# -- continuity certificates -------------------------------------------------------


def product_cover(a, b, pins):
    """Pin sets (F1, F2) with U_a(F1) * U_b(F2) contained in U_{a*b}(pins)."""
    g = a * b
    pins = frozenset(pins)
    for x in pins:
        if x not in g:
            raise InvalidElementError(f"pin {x} is outside dom of the product")
    # the escapes: a.inverse() applied to the domain gaps of b it is defined on
    escapes = set()
    for lo, hi, (_, _, off), _ in _overlaps(a.inverse()._pieces(), b._dom_runs()):
        escapes.update(range(lo + off, hi + off + 1))
    f2 = frozenset(a(x) for x in pins)
    return frozenset(pins | escapes), f2


def inverse_cover(g, pins):
    """Pin sets (source, target) with (U_g(source))^-1 contained in U_{g^-1}(target).

    The source is the pins plus the preimages of the two range points
    around each maximal run of range gaps of g.
    """
    pins = frozenset(pins)
    for x in pins:
        if x not in g:
            raise InvalidElementError(f"pin {x} is outside the domain")
    ginv = g.inverse()
    brackets = set()
    for lo, hi in g._ran_runs():
        brackets.add(ginv(lo - 1))
        brackets.add(ginv(hi + 1))
    src = pins | brackets
    tgt = frozenset(g(x) for x in src)
    return frozenset(src), tgt


def separate(a, b):
    """Pin sets (F1, F2) with U_a(F1) and U_b(F2) disjoint; requires a != b.

    Either the maps disagree at a common domain point (pin it on both sides)
    or one domain misses a point of the other (pin it on the side that has
    it; the other side excludes it by domain shrinkage).  The witness point
    is the smallest available by (|x|, x).
    """
    if _almost.canonicalize(a) == _almost.canonicalize(b):
        raise InvalidElementError("cannot separate an element from itself")
    overlaps = _overlaps(a._pieces(), b._pieces())
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
    """
    if nbhd.flavor == "H":
        return _sample_h_member(nbhd, rng)
    return _sample_w_member(nbhd, rng)


def _sample_w_member(nbhd, rng):
    if isinstance(nbhd.center, MonotoneElement):
        return _sample_w_monotone(nbhd, rng)
    return _sample_w_almost(nbhd, rng)


def _kept_points(c, pinvals, w, rng):
    kept = []
    for x in range(-w, w + 1):
        if x not in c:
            continue
        if x in pinvals or x in (-w, w) or rng.random() >= 0.25:
            kept.append(x)
    return kept


def _sample_w_monotone(nbhd, rng):
    c = nbhd.center
    w = _extent(c, nbhd.pins) + 4
    pinvals = {x: c(x) for x in nbhd.pins}
    kept = _kept_points(c, pinvals, w, rng)

    # redraw values zone by zone; pin values bracket each inner zone
    vals = {}
    bounds = [None] + sorted(pinvals) + [None]
    for zlo, zhi in zip(bounds, bounds[1:]):
        zone = [
            x
            for x in kept
            if x not in pinvals
            and (zlo is None or x > zlo)
            and (zhi is None or x < zhi)
        ]
        if zlo is not None and zhi is not None:
            qlo, qhi = pinvals[zlo], pinvals[zhi]
            cap = qhi - qlo - 1
            zone = sorted(rng.sample(zone, min(len(zone), cap)))
            vals.update(zip(zone, sorted(rng.sample(range(qlo + 1, qhi), len(zone)))))
        elif zhi is not None:
            v = pinvals[zhi]
            for x in reversed(zone):
                v -= rng.randint(1, 2)
                vals[x] = v
        else:
            v = pinvals[zlo] if zlo is not None else -w + rng.randint(-3, 1)
            for x in zone:
                v += rng.randint(1, 2)
                vals[x] = v
    vals.update(pinvals)

    raw = [(NEG_INF, -w, vals[-w] + w), (w, POS_INF, vals[w] - w)]
    raw.extend((x, x, vals[x] - x) for x in vals if -w < x < w)
    return normalize(raw)


def _sample_w_almost(nbhd, rng):
    c = nbhd.center
    w = _extent(c, nbhd.pins) + 4
    pinvals = {x: c(x) for x in nbhd.pins}
    kept = _kept_points(c, pinvals, w, rng)
    interior = [x for x in kept if -w < x < w and x not in pinvals]

    # tail anchors clear of every pin value, then arbitrary injective middle
    anchor_lo = min(pinvals.values(), default=0)
    anchor_hi = max(pinvals.values(), default=0)
    vleft = anchor_lo - len(kept) - rng.randint(1, 3)
    vright = anchor_hi + len(kept) + rng.randint(1, 3)
    pool = [v for v in range(vleft + 1, vright) if v not in pinvals.values()]
    chosen = rng.sample(pool, len(interior))
    mid = dict(pinvals)
    mid.update(zip(interior, chosen))
    mid = {x: v for x, v in mid.items() if -w < x < w}
    return _almost.make_almost(-w, vleft + w, w, vright - w, mid)


def _perm_of_cofinite(gaps, moved: dict) -> _almost.AlmostMonotoneElement:
    """The bijection of Z minus gaps that applies the finite permutation ``moved``."""
    pts = set(moved) | set(gaps)
    if not pts:
        return _almost.almost_identity()
    d, u = min(pts) - 1, max(pts) + 1
    mid = {x: moved.get(x, x) for x in range(d + 1, u) if x not in gaps}
    return _almost.make_almost(d, 0, u, 0, mid)


def _random_perm(points, rng):
    pts = sorted(points)
    n = rng.randint(0, min(4, len(pts)))
    chosen = rng.sample(pts, n)
    img = chosen[:]
    rng.shuffle(img)
    return {x: y for x, y in zip(chosen, img) if x != y}


def _sample_h_member(nbhd, rng):
    c = _almost.as_almost(nbhd.center)
    w = _extent(c, nbhd.pins) + 3
    dom_pool = [x for x in range(-w, w + 1) if x in c and x not in nbhd.pins]
    pin_images = {c(x) for x in nbhd.pins}
    cinv = _almost.inverse_almost(c)
    ran_pool = [y for y in range(-w, w + 1) if y in cinv and y not in pin_images]
    sigma = _perm_of_cofinite(c.dom_gaps(), _random_perm(dom_pool, rng))
    rho = _perm_of_cofinite(c.ran_gaps(), _random_perm(ran_pool, rng))
    return _almost.compose_almost(_almost.compose_almost(sigma, c), rho)


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
