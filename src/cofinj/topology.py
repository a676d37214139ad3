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
their translation pieces, so membership, ``inverse_cover`` and ``separate``
cost time in the number of segments or middle points, not in the gap widths;
``product_cover`` lists every escape point it pins.

The audits draw members with ``sample_member``.  A W draw around a monotone
center works on runs: the pins split the center's domain runs into zones
(``core._zones``, the zone model that the monotone solver's cells come from
too), and a draw cuts the runs near their ends and gives each run left one
translation, in O(pieces + pins + cuts) at any width.  Every member of the
neighborhood is a possible draw.  Still linear in the width: the
almost-monotone W plan and draw, the H plan's window lists, and
``product_cover``'s escape set.

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
    _check_element,
    _check_int,
    _gaps_between,
    _overlaps,
    _run_size,
    _runs_within,
    _window,
    _zones,
)
from . import _kernel
from . import almost as _almost


class BasicNeighborhood:
    """U_center(pins) when flavor is 'W', W_center(pins) when flavor is 'H'."""

    # _runs holds the center's domain gap runs and, for 'H', its range gap runs, which member reads;
    # _draw holds the draw function of the neighborhood's sampling plan once sample_member builds it
    __slots__ = ("center", "pins", "flavor", "_runs", "_draw")

    def __init__(self, center, pins, flavor: str = "W"):
        if flavor not in ("W", "H"):
            raise InvalidElementError(f"flavor must be 'W' or 'H', got {flavor!r}")
        _check_element(center, "center")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "pins", _checked_pins(pins, center, "the center's domain"))
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "_runs", (center._dom_runs(), center._ran_runs() if flavor == "H" else None))
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
                and self.center.pieces == other.center.pieces
            )
        return NotImplemented

    def __hash__(self):
        # the center's pieces hash as the center does, whichever its class
        return hash((self.flavor, self.pins, self.center.pieces))

    def to_text(self) -> str:
        return self._written(_almost.canonicalize(self.center).to_text())

    def __repr__(self):
        # the center's repr is its text up to a 64-point window and its pieces beyond
        return self._written(repr(_almost.canonicalize(self.center)))

    def _written(self, center: str) -> str:
        name = "nbhd" if self.flavor == "W" else "nbhd_h"
        pins = ", ".join(str(p) for p in sorted(self.pins))
        return f"{name}({center}; {pins})"


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


def _check_nbhd(nbhd, name: str):
    if not isinstance(nbhd, BasicNeighborhood):
        raise InvalidElementError(f"{name}'s nbhd must be a neighborhood, got {nbhd!r}")


def member(nbhd: BasicNeighborhood, elem) -> bool:
    _check_nbhd(nbhd, "member")
    _check_element(elem, "member")
    c = nbhd.center
    dom, ran = nbhd._runs
    if nbhd.flavor == "W":
        if not _runs_within(dom, elem._dom_runs()):
            return False
    else:
        if dom != elem._dom_runs() or ran != elem._ran_runs():
            return False
    return all(elem(x) == c(x) for x in nbhd.pins)


def _extent(elem, pins=()) -> int:
    """The largest |x| over the pins, the finite piece ends, the window ends and their images.

    The window ends are finite piece ends unless the element is a total
    translation, whose window is (0, 1); either class counts it.
    """
    pieces = elem.pieces
    ends = [v for lo, hi, o in pieces for e in (lo, hi) if abs(e) != POS_INF for v in (e, e + o)]
    d, u = _window(pieces)
    ends += (d, d + pieces[0][2], u, u + pieces[-1][2])
    return max(map(abs, chain(pins, ends)), default=0)


# -- continuity certificates -------------------------------------------------------


def product_cover(a, b, pins):
    """Pin sets (F1, F2) with U_a(F1) * U_b(F2) contained in U_{a*b}(pins)."""
    _check_element(a, "product_cover's a")
    _check_element(b, "product_cover's b")
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
    _check_element(g, "inverse_cover's g")
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
    _check_element(a, "each argument of separate")
    _check_element(b, "each argument of separate")
    if a.pieces == b.pieces:
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

    W flavor around a monotone center: cut the center's domain runs a
    geometric number of times near their ends (always keeping the pins), then
    give each run left one translation, zone by zone between consecutive pins
    (see ``_w_monotone_plan``).  A draw costs O(pieces + pins + cuts), at any
    width, and every member of U_c(F) is a possible draw.  W flavor around an
    almost-monotone center: keep a random cofinite subset of the window
    [-w, w] around the pins and the finite piece ends, and redraw its values;
    zones between two pins may be reshuffled non-monotonically.
    H flavor: conjugate the center by finite permutations of its domain and
    range fixing the pins and their images.

    The first call on a neighborhood builds its plan and keeps its draw
    function, so later calls only consume ``rng``; a draw from a reused
    neighborhood equals one from a fresh neighborhood with the same rng
    state.  The almost-monotone W plan and draw and the H plan's window
    lists take time linear in the window width; an H draw grafts its
    permutations onto gap runs, so its cost follows the pieces.
    """
    _check_nbhd(nbhd, "sample_member")
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


def _geometric_stream(rng):
    """Endless independent draws of P(k) = 2^-(k+1) on k >= 0.

    Each is the number of 0 bits before the next 1 bit in one stream of
    random 64-bit words, read from the low bit up.
    """
    k = 0  # the 0 bits counted so far toward the next draw
    while True:
        word = rng.getrandbits(64)
        left = 64
        while word:
            t = (word & -word).bit_length()
            yield k + t - 1
            k = 0
            word >>= t
            left -= t
        k += left


def _cut_length(rng) -> int:
    """A draw of P(k) = (1/4)(3/4)^k on k >= 0: the 2-bit digits of random 64-bit words before the first 11."""
    k = 0
    while True:
        word = rng.getrandbits(64)
        elevens = word & (word >> 1) & 0x5555555555555555
        if elevens:
            return k + ((elevens & -elevens).bit_length() >> 1)
        k += 32


def _w_monotone_plan(nbhd):
    """The draw of a W member around a monotone center, in O(pieces + pins + cuts) per draw.

    The pins, as one-point pieces between anchors at -inf and +inf, split
    the center's domain runs into zones (``core._zones``, as the monotone
    solver's forced pieces split its free runs into cells); the outer zones
    have an infinite value bound.  A draw cuts the runs of each zone near
    their ends (see ``_cut``) and gives each run left one translation.
    Between two pins it splits the slack the kept points leave among the
    runs by exact uniform draws, so it stays exact when the slack passes
    2^53; beyond the outer pins it walks away from the pin's value, each run
    starting 1 + geometric past the last value.  With no pins the walk
    starts from the center's left translation, moved by a signed geometric
    amount.  Every member of the neighborhood is a possible draw: any finite
    set of removed points and splits is a possible set of cuts, and any
    translations a member gives the runs are possible outcomes of the walks
    and the uniform draws.
    """
    c = nbhd.center
    pin_pieces = [(p, p, c(p) - p) for p in sorted(nbhd.pins)]
    # a member keeps none of the center's translations but the pins' values, so only its domain runs matter;
    # the anchors at -inf and +inf give the outer zones infinite value bounds
    anchors = [(NEG_INF, NEG_INF, 0), *pin_pieces, (POS_INF, POS_INF, 0)]
    dom = _gaps_between([(NEG_INF, NEG_INF), *c._dom_runs(), (POS_INF, POS_INF)])
    zones = []
    for qlo, qhi, runs in _zones(anchors, dom):
        # the ends cuts count from, as (run, start, up): each finite end, and 0 up and 1 down in Z itself
        ends = []
        for j, (lo, hi) in enumerate(runs):
            if lo != NEG_INF or hi == POS_INF:
                ends.append((j, 0 if lo == NEG_INF else lo, True))
            if hi != POS_INF or lo == NEG_INF:
                ends.append((j, 1 if hi == POS_INF else hi + 1, False))
        zones.append((qlo, qhi, runs, ends))
    pin_pieces.append(None)  # the pin after each zone, and none after the last
    first = c.pieces[0][2]  # the translation a zone with no pins walks from

    def draw(rng):
        geo = _geometric_stream(rng).__next__
        raw = []
        for (qlo, qhi, runs, ends), pin in zip(zones, pin_pieces):
            # one bit per end: the ends whose bit is set cut
            flags = rng.getrandbits(len(ends)) if ends else 0
            if flags:
                runs = _cut(runs, ends, flags, geo, rng)
            if qhi == POS_INF:
                q = qlo
                for lo, hi in runs:
                    k = geo()
                    if q == NEG_INF:
                        off = first - k if k and rng.getrandbits(1) else first + k
                    else:
                        off = q + 1 + k - lo
                    raw.append((lo, hi, off))
                    q = hi + off
            elif qlo == NEG_INF:
                q = qhi
                tail = []
                for lo, hi in reversed(runs):
                    off = q - 1 - geo() - hi
                    tail.append((lo, hi, off))
                    q = lo + off
                raw += reversed(tail)
            elif runs:
                raw += _spread(runs, qlo, qhi, rng)
            if pin:
                raw.append(pin)
        # the validating constructor: a draw checks what it builds
        return MonotoneElement(_kernel.merge_pieces(raw))

    return draw


def _cut(runs, ends, flags, geo, rng) -> list:
    """What the cuts leave of the runs, as increasing (lo, hi) runs.

    End i, a (run, start, up) triple, cuts when bit i of ``flags`` is set,
    1 + g // 2 times for a geometric g (``geo``).  A cut counts a geometric
    distance in from its end and removes the next ``_cut_length`` points; a
    cut of 0 points splits the run there, so its two parts can take
    different translations.  Cuts count only from finite ends (or from 0 and
    1 in a run infinite both ways), so an infinite run is never removed whole.
    """
    holes = []  # (run, a, b): the points a..b - 1 of the run removed
    i = 0
    while flags:
        if flags & 1:
            j, start, up = ends[i]
            for _ in range(1 + (geo() >> 1)):
                d, m = geo(), _cut_length(rng)
                holes.append((j, start + d, start + d + m) if up else (j, start - d - m, start - d))
        flags >>= 1
        i += 1
    holes.sort()
    out = []
    h = 0
    for j, (lo, hi) in enumerate(runs):
        s = lo  # the first point not yet kept or removed
        while h < len(holes) and holes[h][0] == j:
            _, a, b = holes[h]
            h += 1
            e = a - 1 if a <= hi else hi
            if s <= e:
                out.append((s, e))
            if b > s:
                s = b
        if s <= hi:
            out.append((s, hi))
    return out


def _spread(runs, qlo, qhi, rng) -> list:
    """Pieces sending the runs increasingly into qlo + 1..qhi - 1; exact uniform draws split the slack."""
    slack = qhi - qlo - 1 - _run_size(runs)
    shares = sorted([rng.randrange(slack + 1) for _ in runs]) if slack else [0] * len(runs)
    out = []
    v = qlo + 1  # the lowest value left for the next run, before its share of the slack
    for (lo, hi), share in zip(runs, shares):
        out.append((lo, hi, v + share - lo))
        v += hi - lo + 1
    return out


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


def _random_perm(pts, rng):
    """A random permutation of at most 4 of the increasing points ``pts``, without fixed points."""
    n = rng.randint(0, min(4, len(pts)))
    chosen = rng.sample(pts, n)
    img = chosen[:]
    rng.shuffle(img)
    return {x: y for x, y in zip(chosen, img) if x != y}


def _h_plan(nbhd):
    """The H draw: the center, of either class, conjugated by permutations of its window's points off the pins."""
    c = nbhd.center
    w = _extent(c, nbhd.pins) + 3
    pin_images = {c(x) for x in nbhd.pins}
    dom_pool = [x for x in _window_points(c, w) if x not in nbhd.pins]
    ran_pool = [y for y in _window_points(c.inverse(), w) if y not in pin_images]
    dom_runs, ran_runs = c._dom_runs(), c._ran_runs()

    def draw(rng):
        sigma = _almost._permuted(dom_runs, _random_perm(dom_pool, rng))
        rho = _almost._permuted(ran_runs, _random_perm(ran_pool, rng))
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
