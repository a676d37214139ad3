"""Almost-monotone injective partial selfmaps of Z with cofinite domain and image.

These are the maps that become monotone after deleting finitely many domain
points.  Outside a finite window such a map is still a translation on each
side, so an element is stored as the two tail translations plus an arbitrary
finite injective patch in between: ``x -> x + left_offset`` for
``x <= left_end``, ``x -> x + right_offset`` for ``x >= right_start``, and a
finite dict ``middle`` on the open window in between (keys absent from the
dict are domain gaps).

Canonical form: the window is minimal, i.e. neither end point of the window
can be absorbed into its tail; a total translation (empty middle, equal
offsets) is normalized to the window (0, 1).  With that, equality of maps is
structural equality again.

Monoid structure (compose/inverse) matches the monotone case pointwise, and
the monotone elements embed via ``from_monotone`` / ``to_monotone``.  Both
work on maximal translation pieces: the two tails and the runs of the sorted
middle with one offset.  Composition sorts the left factor's pieces by image
and merge-joins them with the right factor's pieces in the segment kernel
that monotone ``*`` uses, so its cost grows with the pieces and the result's
middle, not with the window width or the offsets.

Outside data is validated once, where it enters: the constructor,
:func:`make_almost` and :func:`parse_almost`.  Results built from pieces of
elements that are already canonical (compositions, inverses, conversions)
are canonical by construction and wrapped by
:meth:`AlmostMonotoneElement._trusted` without a second check.
"""

from __future__ import annotations

import random
import re
from typing import NamedTuple

from . import _kernel
from .core import (
    NEG_INF,
    POS_INF,
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    Segment,
)


class AlmostMonotoneElement:
    __slots__ = ("left_end", "left_offset", "right_start", "right_offset", "middle")

    def __init__(self, left_end, left_offset, right_start, right_offset, middle):
        mid = dict(middle)
        _check_window(left_end, left_offset, right_start, right_offset, mid)
        if mid.get(left_end + 1) == left_end + 1 + left_offset:
            raise InvalidElementError("window not minimal: left tail extends")
        if mid.get(right_start - 1) == right_start - 1 + right_offset:
            raise InvalidElementError("window not minimal: right tail extends")
        if (
            not mid
            and left_offset == right_offset
            and right_start == left_end + 1
            and (left_end, right_start) != (0, 1)
        ):
            raise InvalidElementError("a total translation must use the window (0, 1)")
        object.__setattr__(self, "left_end", left_end)
        object.__setattr__(self, "left_offset", left_offset)
        object.__setattr__(self, "right_start", right_start)
        object.__setattr__(self, "right_offset", right_offset)
        object.__setattr__(self, "middle", mid)

    @classmethod
    def _trusted(cls, d, dl, u, ur, mid: dict) -> "AlmostMonotoneElement":
        """Wrap fields that are canonical by construction, unchecked; mid is not copied."""
        self = object.__new__(cls)
        _set_left_end(self, d)
        _set_left_offset(self, dl)
        _set_right_start(self, u)
        _set_right_offset(self, ur)
        _set_middle(self, mid)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("AlmostMonotoneElement is immutable")

    # -- pointwise semantics ------------------------------------------------

    def __call__(self, x: int) -> int | None:
        if x <= self.left_end:
            return x + self.left_offset
        if x >= self.right_start:
            return x + self.right_offset
        return self.middle.get(x)

    def __contains__(self, x: int) -> bool:
        return self(x) is not None

    # -- gap and tail data ----------------------------------------------------

    def dom_gaps(self) -> frozenset:
        """Every integer outside the domain; its size grows with the window width."""
        return frozenset(
            x for x in range(self.left_end + 1, self.right_start) if x not in self.middle
        )

    def ran_gaps(self) -> frozenset:
        """Every integer outside the range; its size grows with the window width."""
        taken = set(self.middle.values())
        lo = self.left_end + self.left_offset
        hi = self.right_start + self.right_offset
        return frozenset(y for y in range(lo + 1, hi) if y not in taken)

    def _dom_runs(self) -> list:
        """The domain gaps as sorted maximal (lo, hi) runs, from the window and the sorted middle keys."""
        return _runs_between(self.left_end, sorted(self.middle), self.right_start)

    def _ran_runs(self) -> list:
        """The range gaps as sorted maximal (lo, hi) runs, from the tail images and the sorted middle values."""
        return _runs_between(
            self.left_end + self.left_offset,
            sorted(self.middle.values()),
            self.right_start + self.right_offset,
        )

    def _pieces(self) -> list:
        """Domain-sorted maximal (lo, hi, offset) translation pieces: the tails and the middle's runs.

        A run is a stretch of consecutive middle keys with one offset.  The
        minimal window keeps the tails apart from the runs; the two tails
        join only in a total translation, which is one piece.  O(m log m) in
        the middle size.
        """
        mid = self.middle
        out = []
        lo, hi, off = NEG_INF, self.left_end, self.left_offset
        for k in sorted(mid):
            o = mid[k] - k
            if k == hi + 1 and o == off:
                hi = k
            else:
                out.append((lo, hi, off))
                lo = hi = k
                off = o
        u, ur = self.right_start, self.right_offset
        if u == hi + 1 and ur == off:
            out.append((lo, POS_INF, off))
        else:
            out.append((lo, hi, off))
            out.append((u, POS_INF, ur))
        return out

    def is_idempotent(self) -> bool:
        return (
            self.left_offset == 0
            and self.right_offset == 0
            and all(v == k for k, v in self.middle.items())
        )

    def is_monotone(self) -> bool:
        vals = [self.middle[k] for k in sorted(self.middle)]
        return all(a < b for a, b in zip(vals, vals[1:]))

    # -- monoid structure ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (AlmostMonotoneElement, MonotoneElement)):
            return compose_almost(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, MonotoneElement):
            return compose_almost(other, self)
        return NotImplemented

    def inverse(self) -> "AlmostMonotoneElement":
        return inverse_almost(self)

    def __invert__(self):
        return self.inverse()

    # -- equality and text ----------------------------------------------------

    def _key(self):
        return (
            self.left_end,
            self.left_offset,
            self.right_start,
            self.right_offset,
            tuple(sorted(self.middle.items())),
        )

    def __eq__(self, other):
        if isinstance(other, AlmostMonotoneElement):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def to_text(self) -> str:
        pairs = ", ".join(f"{k}->{v}" for k, v in sorted(self.middle.items()))
        body = f"d={self.left_end},L={self.left_offset},u={self.right_start},R={self.right_offset}"
        return f"am[{body}; {pairs}]" if pairs else f"am[{body};]"

    def __repr__(self):
        return self.to_text()


# the slot setters, which skip the immutability guard in __setattr__
_set_left_end, _set_left_offset, _set_right_start, _set_right_offset, _set_middle = (
    AlmostMonotoneElement.__dict__[name].__set__ for name in AlmostMonotoneElement.__slots__
)


def _runs_between(lo, points, hi) -> list:
    """Maximal (lo, hi) runs of the integers strictly between lo and hi missing from sorted points."""
    out = []
    prev = lo
    for p in points + [hi]:
        if prev + 1 < p:
            out.append((prev + 1, p - 1))
        prev = p
    return out


def _check_window(d, dl, u, ur, middle):
    for v in (d, dl, u, ur):
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidElementError("tail data must be integers")
    if d >= u:
        raise InvalidElementError("left end of the window must lie below the right start")
    if d + dl >= u + ur:
        raise InvalidElementError("tail images collide: left image must end below the right image")
    seen = set()
    for k, v in middle.items():
        if not isinstance(k, int) or isinstance(k, bool) or not isinstance(v, int) or isinstance(v, bool):
            raise InvalidElementError("middle entries must be integer pairs")
        if not d < k < u:
            raise InvalidElementError(f"middle point {k} outside the open window ({d}, {u})")
        if not d + dl < v < u + ur:
            raise InvalidElementError(f"middle value {v} collides with a tail image")
        if v in seen:
            raise InvalidElementError(f"middle is not injective: value {v} repeated")
        seen.add(v)


def make_almost(left_end, left_offset, right_start, right_offset, middle) -> AlmostMonotoneElement:
    """Validating constructor; shrinks the window to its canonical minimum.

    The checks and the shrinking are all that canonical form needs, so the
    result is not validated a second time.
    """
    d, dl, u, ur = left_end, left_offset, right_start, right_offset
    mid = dict(middle)
    _check_window(d, dl, u, ur, mid)
    while d + 1 < u and mid.get(d + 1) == d + 1 + dl:
        d += 1
        del mid[d]
    while u - 1 > d and mid.get(u - 1) == u - 1 + ur:
        u -= 1
        del mid[u]
    if not mid and dl == ur and u == d + 1:
        d, u = 0, 1
    return AlmostMonotoneElement._trusted(d, dl, u, ur, mid)


def _from_pieces(pieces) -> AlmostMonotoneElement:
    """The element made of domain-sorted (lo, hi, offset) pieces of an injective map.

    The pieces must cover a cofinite domain with disjoint images, the first
    one from -inf and the last one to +inf; they need not be maximal.  The
    tails grow over adjacent pieces with their offset and every other piece
    goes into the middle point by point, so the result is canonical.
    """
    last = len(pieces) - 1
    _, d, dl = pieces[0]
    i = 1
    while i <= last:
        lo, hi, off = pieces[i]
        if lo != d + 1 or off != dl:
            break
        d = hi
        i += 1
    else:
        return AlmostMonotoneElement._trusted(0, dl, 1, dl, {})
    # pieces[i] stopped the left tail, so the right tail stops before reaching it
    j = last
    u, _, ur = pieces[j]
    while True:
        lo, hi, off = pieces[j - 1]
        if hi != u - 1 or off != ur:
            break
        j -= 1
        u = lo
    mid = {}
    for lo, hi, off in pieces[i:j]:
        if lo == hi:
            mid[lo] = lo + off
        else:
            for x in range(lo, hi + 1):
                mid[x] = x + off
    return AlmostMonotoneElement._trusted(d, dl, u, ur, mid)


def from_monotone(elem: MonotoneElement) -> AlmostMonotoneElement:
    """The same map in almost-monotone form, read off the segments."""
    return _from_pieces(elem.segments)


def _segment_form(elem: AlmostMonotoneElement) -> MonotoneElement:
    # maximal pieces with increasing images are exactly the canonical segments
    return MonotoneElement._trusted(tuple(map(Segment._make, elem._pieces())))


def to_monotone(elem: AlmostMonotoneElement) -> MonotoneElement:
    """Convert back to segment form; fails when the map is not monotone."""
    if not elem.is_monotone():
        raise InvalidElementError("element is not monotone")
    return _segment_form(elem)


def as_almost(elem) -> AlmostMonotoneElement:
    if isinstance(elem, MonotoneElement):
        return from_monotone(elem)
    return elem


def canonicalize(elem):
    """Cross-representation normal form: segment form whenever the map is monotone."""
    if isinstance(elem, AlmostMonotoneElement) and elem.is_monotone():
        return _segment_form(elem)
    return elem


def almost_identity() -> AlmostMonotoneElement:
    return AlmostMonotoneElement(0, 0, 1, 0, {})


def _image_lo(piece):
    return piece[0] + piece[2]


def compose_almost(a, b) -> AlmostMonotoneElement:
    """a then b, pointwise identical to the monotone composition; either may be monotone.

    a's pieces, sorted by image, go through the segment kernel against b's
    pieces; the kernel's output, sorted back by domain, is the result.
    """
    pa = a._pieces()
    if isinstance(a, AlmostMonotoneElement):
        pa.sort(key=_image_lo)
    out = _kernel.compose_segments(pa, b._pieces())
    out.sort()
    return _from_pieces(out)


def inverse_almost(a) -> AlmostMonotoneElement:
    if isinstance(a, MonotoneElement):
        return _from_pieces(a.inverse().segments)
    d, dl, u, ur = a.left_end, a.left_offset, a.right_start, a.right_offset
    if u == d + 1 and dl == ur:
        return AlmostMonotoneElement._trusted(0, -dl, 1, -dl, {})
    # a middle point next to a tail that continued it would break a's own minimality
    return AlmostMonotoneElement._trusted(
        d + dl, -dl, u + ur, -ur, {v: k for k, v in a.middle.items()}
    )


# -- minimal exception sets ------------------------------------------------------


def _lis_above(vals, start, floor):
    """Length of the longest increasing subsequence of vals[start:] staying above floor."""
    best = {}
    out = 0
    for j in range(start, len(vals)):
        if vals[j] <= floor:
            continue
        b = 1
        for i, bi in best.items():
            if vals[i] < vals[j] and bi + 1 > b:
                b = bi + 1
        best[j] = b
        if b > out:
            out = b
    return out


def minimal_exceptions(elem) -> frozenset:
    """A minimum-cardinality set of domain points whose removal leaves the map monotone.

    Only middle points can take part in an order violation (tail images bracket
    every middle value), so this is middle size minus the longest increasing
    run of middle values.  Among all minimum witnesses the lexicographically
    smallest removed-point set is returned, found greedily left to right.
    """
    if isinstance(elem, MonotoneElement):
        return frozenset()
    keys = sorted(elem.middle)
    vals = [elem.middle[k] for k in keys]
    n = len(vals)
    budget = n - _lis_above(vals, 0, NEG_INF)
    removed = []
    floor = NEG_INF
    for i in range(n):
        rest = n - i - 1
        if budget > 0 and _lis_above(vals, i + 1, floor) >= rest - (budget - 1):
            removed.append(keys[i])
            budget -= 1
        else:
            assert vals[i] > floor
            floor = vals[i]
    assert budget == 0
    return frozenset(removed)


def monotonizers(elem):
    """Idempotents (left, right, two-sided) whose products with the element are monotone.

    left restricts the domain to its monotone part, right restricts the image
    accordingly, and the third is their meet; composing on the matching side
    always lands back in the monotone monoid.
    """
    a = as_almost(elem)
    exc = minimal_exceptions(a)
    left = IdempotentGaps(a.dom_gaps() | exc)
    right = IdempotentGaps(a.ran_gaps() | {a(x) for x in exc})
    return left, right, left.meet(right)


# -- the unit group ---------------------------------------------------------------


class UnitDecomposition(NamedTuple):
    """A unit split as a finite-support permutation followed by a shift:
    (x)unit == (x)perm + shift."""

    support_perm: tuple
    shift: int


def unit_decompose(elem) -> UnitDecomposition:
    """Split a unit (total bijective element) into its permutation and shift parts."""
    a = as_almost(elem)
    # middle keys lie in the open window, so the window is full when the counts agree
    total = len(a.middle) == a.right_start - a.left_end - 1
    if not total or a.left_offset != a.right_offset:
        raise InvalidElementError("element is not a unit")
    k = a.left_offset
    support = tuple(
        sorted((x, v - k) for x, v in a.middle.items() if v - k != x)
    )
    return UnitDecomposition(support, k)


def unit_recompose(dec: UnitDecomposition) -> AlmostMonotoneElement:
    perm = dict(dec.support_perm)
    if len(perm) != len(dec.support_perm):
        raise InvalidElementError("support permutation repeats a point")
    if set(perm.values()) != set(perm):
        raise InvalidElementError("support permutation is not a bijection of its support")
    if any(v == k for k, v in perm.items()):
        raise InvalidElementError("support permutation lists a fixed point")
    k = dec.shift
    if not isinstance(k, int) or isinstance(k, bool):
        raise InvalidElementError("shift must be an integer")
    if not perm:
        return make_almost(0, k, 1, k, {})
    lo, hi = min(perm), max(perm)
    mid = {x: perm.get(x, x) + k for x in range(lo, hi + 1)}
    return make_almost(lo - 1, k, hi + 1, k, mid)


def random_almost(seed, max_offset: int = 2, window: int = 5, max_middle: int = 6) -> AlmostMonotoneElement:
    """Deterministic seeded random element, tails within max_offset, middle inside +/-window."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    while True:
        dl = rng.randint(-max_offset, max_offset)
        ur = rng.randint(-max_offset, max_offset)
        d = rng.randint(-window, 0)
        u = rng.randint(d + 1, window + 1)
        if d + dl >= u + ur:
            continue
        slots = list(range(d + 1, u))
        values = list(range(d + dl + 1, u + ur))
        n = min(len(slots), len(values), rng.randint(0, max_middle))
        keys = rng.sample(slots, n)
        vals = rng.sample(values, n)
        return make_almost(d, dl, u, ur, dict(zip(keys, vals)))


def random_unit(seed, max_shift: int = 3, window: int = 4, max_support: int = 5) -> AlmostMonotoneElement:
    """Deterministic seeded random unit of the almost-monotone monoid."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    k = rng.randint(-max_shift, max_shift)
    n = rng.randint(0, max_support)
    pts = rng.sample(range(-window, window + 1), min(n, 2 * window + 1))
    img = pts[:]
    rng.shuffle(img)
    support = tuple(sorted((x, y) for x, y in zip(pts, img) if x != y))
    return unit_recompose(UnitDecomposition(support, k))


# -- text ------------------------------------------------------------------------

_AM_RE = re.compile(
    r"am\[\s*d=([+-]?\d+)\s*,\s*L=([+-]?\d+)\s*,\s*u=([+-]?\d+)\s*,\s*R=([+-]?\d+)\s*;(.*)\]\Z",
    re.DOTALL,
)
_PAIR_RE = re.compile(r"([+-]?\d+)\s*->\s*([+-]?\d+)\Z")


def parse_almost(text: str) -> AlmostMonotoneElement:
    """Parse the am[d=..,L=..,u=..,R=..; k->v, ...] syntax."""
    m = _AM_RE.match(text.strip())
    if not m:
        raise InvalidElementError(f"not an almost-monotone literal: {text!r}")
    d, dl, u, ur = (int(m.group(i)) for i in range(1, 5))
    body = m.group(5).strip()
    mid = {}
    if body:
        for part in body.split(","):
            pm = _PAIR_RE.match(part.strip())
            if not pm:
                raise InvalidElementError(f"malformed middle entry: {part.strip()!r}")
            k, v = int(pm.group(1)), int(pm.group(2))
            if k in mid:
                raise InvalidElementError(f"middle point {k} listed twice")
            mid[k] = v
    return make_almost(d, dl, u, ur, mid)
