"""Exact arithmetic for monotone injective partial selfmaps of the integers.

The elements handled here are the partial maps Z -> Z that are injective,
strictly order preserving on their domain, and total outside a finite set,
with cofinite image.  Such a map eventually acts as a pure translation on
each side, so it decomposes into finitely many translation pieces.  We store
the maximal such decomposition as an ordered tuple of segments
``(lo, hi, offset)`` meaning ``x -> x + offset`` for ``lo <= x <= hi``; the
first segment starts at ``-inf`` and the last ends at ``+inf``.  Maximality
makes the segment tuple a normal form, so equality of maps is structural
equality of segment tuples.  Both element classes store it as ``pieces``, a
tuple of plain tuples; ``MonotoneElement.segments`` is a view that builds
the same triples as :class:`Segment` namedtuples on each read.

The almost-monotone elements (:mod:`cofinj.almost`) use the same normal
form, domain-sorted maximal pieces, only without increasing images.  What
depends on the pieces alone (evaluation, gap runs and gap sets, the
idempotent test, inversion, grafting points) lives here, in
:class:`_PieceMap` and the helpers next to it, and serves both classes.

Composition is written in diagram order: ``(x)(a * b) == ((x)a)b``, i.e. the
left factor acts first.  All arithmetic is exact; bounds are Python ints
apart from the two infinities, which are the float infinities used only for
comparisons and never mixed into finite arithmetic.

The idempotents of this monoid are the identity maps of cofinite subsets;
they are encoded by their finite gap set (``IdempotentGaps``), under which
the idempotent semilattice is the semilattice of finite subsets of Z with
union.  A gap set is stored and read as its sorted maximal (lo, hi) runs:
``IdempotentGaps`` holds runs, and collapses, idempotents and elements with
given gaps are built from runs, so their cost does not grow with the gap
widths.  Points appear only where the input or the result is a point set:
``dom_gaps()``, ``ran_gaps()``, ``IdempotentGaps.gaps``, the point
constructors ``IdempotentGaps(points)``, ``collapse_element`` and
``element_from_gaps``, and the ``E{...}`` text.

Every ``*`` is one pass of the segment kernel (:mod:`cofinj._kernel`), which
merges as it emits, and one ``tuple`` of its output.  Outside data pays a
check per segment that runs inline for plain ints; the checks and their
messages are those of ``_check_segment``, which takes every other segment.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from itertools import chain, filterfalse, starmap
from operator import itemgetter
from typing import Iterable, NamedTuple

from . import _kernel

NEG_INF = float("-inf")
POS_INF = float("inf")

# An element whose window (``_window``) holds more points than this prints as its
# pieces, and an idempotent whose gap runs span more points prints as its runs
_REPR_MAX_POINTS = 64


class InvalidElementError(ValueError):
    """Raised when data does not describe a valid element of the monoid."""


class Segment(NamedTuple):
    lo: int | float
    hi: int | float
    offset: int


def _is_int(v) -> bool:
    """The one integer test for outside data: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_bound(v) -> bool:
    # _is_int written out: this runs on every segment bound that enters
    return isinstance(v, int) and not isinstance(v, bool) or v == NEG_INF or v == POS_INF


def _check_int(v, message: str):
    if type(v) is not int and not _is_int(v):
        raise InvalidElementError(f"{message}, got {v!r}")


def _check_segment(lo, hi, offset):
    if not _is_bound(lo) or not _is_bound(hi):
        raise InvalidElementError(f"segment bounds must be integers or +/-inf, got ({lo}, {hi})")
    _check_int(offset, "segment offset must be an integer")
    if lo == POS_INF or hi == NEG_INF:
        raise InvalidElementError("segment bounds out of orientation: lo < +inf and hi > -inf required")
    if lo > hi:
        raise InvalidElementError(f"empty segment ({lo}..{hi})")


def _check_gaps(gaps) -> frozenset:
    """Outside gap positions as a frozenset of plain ints.

    A set of plain ints passes in one C-level pass over the types; anything
    else is checked point by point, and the first point that is not an
    integer, in the set's iteration order, is the one reported.
    """
    try:
        gs = frozenset(gaps)
    except TypeError:
        raise InvalidElementError(f"gaps must be an iterable of integer positions, got {gaps!r}") from None
    if gs and not {*map(type, gs)} <= {int}:
        for g in filterfalse(_is_int, gs):
            _check_int(g, "gap positions must be integers")
        # int subclasses such as IntEnum go on as their values
        gs = frozenset(map(int, gs))
    return gs


def _segments(raw) -> tuple:
    """Outside (lo, hi, offset) data as a tuple of plain tuples, each of length three."""
    try:
        segs = tuple(map(tuple, raw))
    except TypeError:
        raise InvalidElementError("segments must be an iterable of (lo, hi, offset) triples") from None
    if {*map(len, segs)} - {3}:
        bad = next(s for s in segs if len(s) != 3)
        raise InvalidElementError(f"a segment must be a (lo, hi, offset) triple, got {bad!r}")
    return segs


def _check_segments(segs):
    """The check of every segment; plain ints and the matching infinities pass inline."""
    for lo, hi, offset in segs:
        if not (
            (type(lo) is int or lo == NEG_INF)
            and (type(hi) is int or hi == POS_INF)
            and type(offset) is int
            and lo <= hi
        ):
            _check_segment(lo, hi, offset)


def _check_canonical(segs, monotone: bool = True):
    """The check of a maximal piece tuple; the images increase when ``monotone``, else they are disjoint."""
    _check_segments(segs)
    _check_ends(segs)
    _check_neighbours(segs, monotone)


def _check_ends(segs):
    """A piece tuple has a first piece from -inf and a last one to +inf."""
    if not segs:
        raise InvalidElementError("an element needs at least one segment")
    if segs[0][0] != NEG_INF:
        raise InvalidElementError("leftmost segment must extend to -inf")
    if segs[-1][1] != POS_INF:
        raise InvalidElementError("rightmost segment must extend to +inf")


def _check_neighbours(segs, monotone: bool = True):
    """Neighbouring pieces are disjoint, ordered and maximal; images increase when ``monotone``, else are disjoint."""
    for (lo1, hi1, o1), (lo2, hi2, o2) in zip(segs, segs[1:]):
        if not hi1 < lo2:
            raise InvalidElementError("segments overlap or are out of order")
        if monotone and not hi1 + o1 < lo2 + o2:
            raise InvalidElementError("segment images overlap or are out of order")
        if hi1 + 1 == lo2 and o1 == o2:
            raise InvalidElementError("adjacent segments with equal offset must be merged")
    if not monotone:
        images = sorted([(lo + o, hi + o) for lo, hi, o in segs])
        if any(s[1] >= t[0] for s, t in zip(images, images[1:])):
            raise InvalidElementError("segment images overlap")


class _PieceMap:
    """What both element classes read off their translation pieces alone.

    ``pieces`` is the tuple of the map's domain-sorted maximal (lo, hi,
    offset) pieces, each a plain tuple: ``x -> x + offset`` for
    ``lo <= x <= hi``, the first piece from -inf and the last to +inf.

    Identity is decided here for both classes: ``==`` holds within a class
    (same class, equal pieces), ``pieces`` is the map's identity across the
    classes, and an element hashes as its pieces.  ``almost.canonicalize``
    picks the class a map is shown in, for output only.
    """

    __slots__ = ("pieces",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _trusted(cls, pieces):
        """Wrap canonical-by-construction pieces, unchecked; ``_set_pieces`` fills the slot past ``__setattr__``."""
        self = _new(cls)
        _set_pieces(self, tuple(pieces))
        return self

    def __reduce__(self):
        # copies and pickles rebuild from the pieces, checked, in time independent of the widths
        return (_unpickled, (type(self), self.pieces))

    def __eq__(self, other):
        if type(other) is type(self):
            return self.pieces == other.pieces
        return NotImplemented

    def __hash__(self):
        return hash(self.pieces)

    # -- pointwise semantics ------------------------------------------------

    def __call__(self, x: int) -> int | None:
        """Value at the integer x, or None when x is outside the domain."""
        if type(x) is not int:
            _check_int(x, "points must be integers")
        pieces = self.pieces
        lo, hi, offset = pieces[bisect_right(pieces, x, key=_lo) - 1]
        if x <= hi:
            return x + offset
        return None

    def __contains__(self, x) -> bool:
        return _is_int(x) and self(x) is not None

    def is_idempotent(self) -> bool:
        return not any(map(_offset, self.pieces))

    def __invert__(self):
        return self.inverse()

    # -- tail and gap data ----------------------------------------------------

    @property
    def left_offset(self) -> int:
        return self.pieces[0][2]

    @property
    def right_offset(self) -> int:
        return self.pieces[-1][2]

    def _dom_runs(self) -> list:
        """The domain gaps as sorted maximal (lo, hi) runs, read off neighbouring pieces."""
        return _gaps_between(self.pieces)

    def _ran_runs(self) -> list:
        """The range gaps as sorted maximal (lo, hi) runs, read off the piece images."""
        return _image_gaps(self.pieces)

    def dom_gaps(self) -> frozenset:
        """Every integer outside the domain; its size grows with the gap widths."""
        return _run_points(self._dom_runs())

    def ran_gaps(self) -> frozenset:
        """Every integer outside the range; its size grows with the gap widths."""
        return _run_points(self._ran_runs())

    def is_monotone(self) -> bool:
        p = self.pieces
        return all(s[1] + s[2] < t[0] + t[2] for s, t in zip(p, p[1:]))

    def __repr__(self):
        # the text lists gap or middle points inside the window, so a wide one prints the pieces
        lo, hi = _window(self.pieces)
        if hi - lo < _REPR_MAX_POINTS:
            return self.to_text()
        return f"{type(self).__name__}({self.pieces})"


_new, _set_pieces = object.__new__, _PieceMap.pieces.__set__
_lo = itemgetter(0)
_lo_hi = itemgetter(0, 1)
_offset = itemgetter(2)


def _check_element(v, name: str):
    if not isinstance(v, _PieceMap):
        raise InvalidElementError(f"{name} must be an element, got {v!r}")


def _window(pieces) -> tuple:
    """A piece tuple's window: from the end of the first piece to the start of the last, (0, 1) for one piece."""
    return (pieces[0][1], pieces[-1][0]) if len(pieces) > 1 else (0, 1)


def _gaps_between(intervals) -> list:
    """The maximal (lo, hi) runs of integers between consecutive sorted disjoint intervals."""
    return [(s[1] + 1, t[0] - 1) for s, t in zip(intervals, intervals[1:]) if s[1] + 1 < t[0]]


def _image_gaps(pieces) -> list:
    """The maximal (lo, hi) runs of integers outside the images of (lo, hi, offset) pieces with disjoint images."""
    return _gaps_between(sorted([(lo + o, hi + o) for lo, hi, o in pieces]))


def _run_ints(runs):
    """The points of sorted (lo, hi) runs, in increasing order."""
    return chain.from_iterable([range(lo, hi + 1) for lo, hi in runs])


def _run_points(runs) -> frozenset:
    return frozenset(_run_ints(runs))


def _run_size(runs) -> int:
    """The number of points in disjoint (lo, hi) runs."""
    return sum([hi - lo + 1 for lo, hi in runs])


def _inverted(pieces):
    """The inverse map's pieces, in the order of the images of ``pieces``."""
    return [(lo + o, hi + o, -o) for lo, hi, o in pieces]


def _translation_off(runs, k: int = 0) -> list:
    """The pieces of x -> x + k off (lo, hi) runs sorted by lo, which may touch or overlap."""
    pieces = []
    covered = NEG_INF  # the largest point the runs so far cover
    for lo, hi in runs:
        if covered + 1 < lo:
            pieces.append((covered + 1, lo - 1, k))
        if hi > covered:
            covered = hi
    pieces.append((covered + 1, POS_INF, k))
    return pieces


def _graft(pieces, points) -> list:
    """Maximal pieces of the map extended by (x, value) points outside its domain and range, in O(n log n)."""
    return _kernel.merge_pieces(sorted([*pieces, *[(x, x, v - x) for x, v in points]]))


class MonotoneElement(_PieceMap):
    """A monotone injective partial selfmap of Z in canonical segment form.

    Instances are immutable, and equal as :class:`_PieceMap` says.  The
    segments are stored as ``pieces``, plain tuples; ``segments`` returns
    them as :class:`Segment` namedtuples, a new tuple per read.  Use
    :func:`normalize` (or the constructors ``identity``, ``shift``,
    ``element_from_gaps``) rather than building segment lists by hand.

    Outside data is validated once, where it enters: this constructor,
    :func:`normalize`, :func:`parse_element`, :func:`shift`,
    :func:`collapse_element`, :func:`element_from_gaps` and
    ``IdempotentGaps(...)`` check their arguments.  A segment of plain
    ints and the matching infinities is checked inline; anything else goes
    through ``_check_segment``, so every check and every message is the same
    either way.  Results computed from elements that are already canonical
    (``*``, :meth:`inverse`, collapses, ``IdempotentGaps.to_element``, the
    bicyclic generators, the solvers' candidates) are canonical by
    construction and are wrapped by :meth:`_trusted` without a second check.
    """

    __slots__ = ()

    def __init__(self, segments: Iterable[tuple]):
        segs = _segments(segments)
        _check_canonical(segs)
        object.__setattr__(self, "pieces", segs)

    @property
    def segments(self) -> tuple:
        """The pieces as Segments, a new tuple per read."""
        return tuple(starmap(Segment, self.pieces))

    # the benchmark's tracer looks these up in each element class's own namespace
    dom_gaps = _PieceMap.dom_gaps
    ran_gaps = _PieceMap.ran_gaps

    # -- monoid structure ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, MonotoneElement):
            return MonotoneElement._trusted(_kernel.compose_segments(self.pieces, other.pieces))
        return NotImplemented

    def inverse(self) -> "MonotoneElement":
        # the images of a canonical segment list, read as domains, are canonical too
        return MonotoneElement._trusted(_inverted(self.pieces))

    # -- text -----------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: most specific of id / shift(k) / E{...} / seg[...]."""
        if len(self.pieces) == 1:
            k = self.pieces[0][2]
            return "id" if k == 0 else f"shift({k})"
        if self.is_idempotent():
            return "E{" + ",".join(map(str, _run_ints(self._dom_runs()))) + "}"
        return self.to_seg_text()

    def to_seg_text(self) -> str:
        segs = self.pieces
        if len(segs) == 1:
            return "seg[(-inf..+inf,%+d)]" % segs[0][2]
        # only the two outer bounds are infinite; %d writes an int subclass such as IntEnum by value
        inner = "".join(map("(%d..%d,%+d),".__mod__, segs[1:-1]))
        return "seg[(-inf..%d,%+d),%s(%d..+inf,%+d)]" % (*segs[0][1:], inner, segs[-1][0], segs[-1][2])


def _unpickled(cls, pieces):
    """A copied or unpickled element of ``cls``: its pieces checked as outside data."""
    segs = _segments(pieces)
    _check_canonical(segs, issubclass(cls, MonotoneElement))
    return cls._trusted(segs)


# -- constructors -------------------------------------------------------------


def normalize(raw: Iterable[tuple]) -> MonotoneElement:
    """Canonicalize a list of (lo, hi, offset) segments into an element.

    Accepts segments in any order and merges adjacent pieces with equal
    offset; rejects overlapping domains, out-of-order images, a bounded
    first/last piece, and empty input.  Idempotent on canonical input.  The
    checks below are all that canonical form needs, so the result is not
    validated a second time.  They are the constructor's, in this order:
    every segment, then neighbouring pairs once the kernel's merge loop has
    merged the sorted segments, then the two ends.  A merge joins only
    pieces that touch with one offset, so the first bad pair is the one an
    unmerged walk would meet.
    """
    segs = _segments(raw)
    _check_segments(segs)
    merged = _kernel.merge_pieces(sorted(segs, key=_lo_hi))
    _check_neighbours(merged)
    _check_ends(merged)
    return MonotoneElement._trusted(merged)


def identity() -> MonotoneElement:
    return MonotoneElement([(NEG_INF, POS_INF, 0)])


def shift(k: int) -> MonotoneElement:
    """The unit x -> x + k."""
    return MonotoneElement([(NEG_INF, POS_INF, k)])


def _collapse_runs(runs) -> MonotoneElement:
    """x -> x minus the gaps below x, for sorted disjoint (lo, hi) gap runs that may touch."""
    segs = []
    prev = NEG_INF
    dropped = 0
    for lo, hi in runs:
        if prev + 1 < lo:
            segs.append((prev + 1, lo - 1, -dropped))
        dropped += hi - lo + 1
        prev = hi
    segs.append((prev + 1, POS_INF, -dropped))
    return MonotoneElement._trusted(segs)


@lru_cache(maxsize=8192)
def _collapse_cached(gaps: tuple) -> MonotoneElement:
    """collapse_element for a sorted tuple of distinct integer gaps."""
    return _collapse_runs([(g, g) for g in gaps])


def _idempotent(runs) -> MonotoneElement:
    """The identity map off (lo, hi) gap runs sorted by lo, which may touch or overlap."""
    return MonotoneElement._trusted(_translation_off(runs))


def collapse_element(gaps: Iterable[int]) -> MonotoneElement:
    """The order isomorphism Z \\ gaps -> Z fixing everything below min(gaps).

    Sends x to x minus the number of gaps below x; this is the canonical
    choice of monotone bijection from a cofinite set onto Z.
    """
    return _collapse_cached(tuple(sorted(_check_gaps(gaps))))


def element_from_gaps(dom_gaps: Iterable[int], ran_gaps: Iterable[int], left_offset: int) -> MonotoneElement:
    """The unique element with the given gap sets whose left tail is x -> x + left_offset.

    Built as collapse(dom_gaps), then the shift, then the inverse collapse of
    ran_gaps; the three data determine the element completely.
    """
    _check_int(left_offset, "left_offset must be an integer")
    return _joined(collapse_element(dom_gaps), left_offset, collapse_element(ran_gaps))


def _from_runs(dom_runs, ran_runs, k: int) -> MonotoneElement:
    """element_from_gaps over sorted disjoint (lo, hi) gap runs."""
    _check_int(k, "left_offset must be an integer")
    return _joined(_collapse_runs(dom_runs), k, _collapse_runs(ran_runs))


def _joined(left: MonotoneElement, k: int, right: MonotoneElement) -> MonotoneElement:
    """The collapse ``left``, then x -> x + k, then the inverse of the collapse ``right``."""
    if k:
        left = MonotoneElement._trusted([(lo, hi, o + k) for lo, hi, o in left.pieces])
    return left * right.inverse()


def random_element(seed, max_gaps: int, max_offset: int) -> MonotoneElement:
    """Deterministic seeded random canonical element.

    Both gap sets have at most max_gaps points and both tail offsets lie in
    [-max_offset, max_offset]; seed may be an int or a random.Random.
    """
    if max_gaps < 0 or max_offset < 0:
        raise ValueError("bounds must be nonnegative")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    while True:
        nd = rng.randint(0, max_gaps)
        nr = rng.randint(0, max_gaps)
        left = rng.randint(-max_offset, max_offset)
        if abs(left + nr - nd) <= max_offset:
            break
    span = 2 * max_gaps + 2
    positions = range(-span, span + 1)
    dgaps = rng.sample(positions, nd)
    rgaps = rng.sample(positions, nr)
    return element_from_gaps(dgaps, rgaps, left)


def _runs_within(inner, outer) -> bool:
    """True when every point of the sorted maximal runs ``inner`` lies in the runs ``outer``.

    A run of inner is then inside one maximal run of outer: the first outer
    run that does not end before it.
    """
    j, n = 0, len(outer)
    for lo, hi in inner:
        while j < n and outer[j][1] < lo:
            j += 1
        if j == n or outer[j][0] > lo or outer[j][1] < hi:
            return False
    return True


def _overlaps(pa, pb):
    """(lo, hi, p, q) for each nonempty overlap lo..hi of an item p of pa with an item q of pb.

    Items are (lo, hi, ...) intervals, each list sorted and disjoint; one
    merge walk over both lists.
    """
    i = j = 0
    while i < len(pa) and j < len(pb):
        p, q = pa[i], pb[j]
        lo, hi = max(p[0], q[0]), min(p[1], q[1])
        if lo <= hi:
            yield lo, hi, p, q
        if p[1] < q[1]:
            i += 1
        else:
            j += 1


# -- spec-level operation aliases ----------------------------------------------


def apply(elem: MonotoneElement, x: int) -> int | None:
    return elem(x)


def compose(a: MonotoneElement, b: MonotoneElement) -> MonotoneElement:
    """a then b: (x)(compose(a, b)) == ((x)a)b."""
    return a * b


def inverse(elem: MonotoneElement) -> MonotoneElement:
    return elem.inverse()


def is_idempotent(elem: MonotoneElement) -> bool:
    return elem.is_idempotent()


def dom_gaps(elem) -> frozenset:
    return elem.dom_gaps()


def ran_gaps(elem) -> frozenset:
    return elem.ran_gaps()


def left_offset(elem) -> int:
    return elem.left_offset


def right_offset(elem) -> int:
    return elem.right_offset


# -- idempotents --------------------------------------------------------------


class IdempotentGaps:
    """An idempotent (identity map of a cofinite set), stored as its gap set.

    The natural partial order is reverse inclusion of gap sets and the
    semilattice meet (= product of the idempotents) is gap-set union, so
    this class is the free semilattice of finite subsets of Z in disguise.

    The gap set is stored as ``runs``, its sorted maximal (lo, hi) runs of
    plain ints, as ``_PieceMap._dom_runs()`` reads them off an element, so
    ``==``, ``hash``, the order, the meet, ``covers`` and the conversions to
    and from elements cost O(runs), whatever the gap widths.  Only ``gaps``
    and the ``E{...}`` text list the points.

    ``IdempotentGaps(points)`` checks its points by ``_check_gaps``: a set
    of plain ints passes in one C-level pass over its types, anything else
    is checked point by point, and input that is not an iterable of hashable
    items is an ``InvalidElementError`` too.  Runs built inside the library,
    and those read back from a pickle, pass the O(runs) check of
    :meth:`_of_runs`.
    """

    __slots__ = ("runs",)

    def __init__(self, gaps: Iterable[int] = ()):
        gs = _check_gaps(gaps)
        pts = sorted(gs)
        # a run starts at a point whose predecessor is no gap and ends at one whose successor is none
        starts = [x for x in pts if x - 1 not in gs]
        object.__setattr__(self, "runs", tuple(zip(starts, [x for x in pts if x + 1 not in gs])))

    @classmethod
    def _of_runs(cls, runs) -> "IdempotentGaps":
        """The idempotent off sorted maximal (lo, hi) gap runs, checked in O(runs)."""
        try:
            runs = tuple(runs)
        except TypeError:
            raise InvalidElementError(f"gap runs must be an iterable of (lo, hi) pairs, got {runs!r}") from None
        prev = NEG_INF
        for run in runs:
            if not (
                type(run) is tuple
                and len(run) == 2
                and type(run[0]) is int
                and type(run[1]) is int
                and prev + 1 < run[0] <= run[1]
            ):
                raise InvalidElementError(f"gap runs must be sorted maximal (lo, hi) pairs of integers, got {run!r}")
            prev = run[1]
        self = object.__new__(cls)
        object.__setattr__(self, "runs", runs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("IdempotentGaps is immutable")

    def __reduce__(self):
        # pickles carry the runs, checked when read back; those written with the point set load through __init__
        return (IdempotentGaps._of_runs, (self.runs,))

    @property
    def gaps(self) -> frozenset:
        """Every gap point, built on each read; its size grows with the gap widths."""
        return _run_points(self.runs)

    @classmethod
    def from_element(cls, elem: MonotoneElement) -> "IdempotentGaps":
        if not elem.is_idempotent():
            raise InvalidElementError("element is not an idempotent")
        return cls._of_runs(elem._dom_runs())

    def to_element(self) -> MonotoneElement:
        return _idempotent(self.runs)

    def leq(self, other: "IdempotentGaps") -> bool:
        """Natural partial order: self <= other iff dom(self) is contained in dom(other)."""
        return _runs_within(_idempotent_arg(other).runs, self.runs)

    def __le__(self, other):
        if isinstance(other, IdempotentGaps):
            return _runs_within(other.runs, self.runs)
        return NotImplemented

    def meet(self, other: "IdempotentGaps") -> "IdempotentGaps":
        # the gaps between the pieces of the identity off both run lists are the runs of their union
        runs = sorted(self.runs + _idempotent_arg(other).runs)
        return IdempotentGaps._of_runs(_gaps_between(_translation_off(runs)))

    def __mul__(self, other):
        if isinstance(other, IdempotentGaps):
            return self.meet(other)
        return NotImplemented

    def covers(self, other: "IdempotentGaps") -> bool:
        """True when other sits directly below self: one extra gap, nothing between."""
        runs = _idempotent_arg(other).runs
        return _run_size(runs) - _run_size(self.runs) == 1 and _runs_within(self.runs, runs)

    def __eq__(self, other):
        if isinstance(other, IdempotentGaps):
            return self.runs == other.runs
        return NotImplemented

    def __hash__(self):
        return hash(self.runs)

    def to_text(self) -> str:
        return "E{" + ",".join(map(str, _run_ints(self.runs))) + "}"

    def __repr__(self):
        # the text lists every gap point, so gaps that span a wide stretch print as runs
        if not self.runs or self.runs[-1][1] - self.runs[0][0] < _REPR_MAX_POINTS:
            return self.to_text()
        return f"{type(self).__name__}(runs={self.runs})"


def _idempotent_arg(other) -> IdempotentGaps:
    """The other operand of an idempotent's method, checked, since a non-idempotent has no runs to read."""
    if not isinstance(other, IdempotentGaps):
        raise InvalidElementError(f"other must be an IdempotentGaps, got {other!r}")
    return other


def idempotent_leq(eps: IdempotentGaps, iota: IdempotentGaps) -> bool:
    return eps.leq(iota)


def idempotent_meet(eps: IdempotentGaps, phi: IdempotentGaps) -> IdempotentGaps:
    return eps.meet(phi)


def covers(eps: IdempotentGaps, phi: IdempotentGaps) -> bool:
    return eps.covers(phi)


# -- canonical text parsing -----------------------------------------------------

import re

_SHIFT_RE = re.compile(r"shift\(\s*([+-]?\d+)\s*\)\Z")
_EGAPS_RE = re.compile(r"E\{([^{}]*)\}\Z")


def _literal(text) -> str:
    """The text of an element literal without its surrounding blanks."""
    if not isinstance(text, str):
        raise InvalidElementError(f"an element literal must be a string, got {type(text).__name__}")
    return text.strip()


# a decimal digit other than 0-9, which int reads as its value
_OTHER_DIGIT_RE = re.compile(r"(?![0-9])\d")
# digits and the letters of "inf" to 0 and signs to +; a blank in "0 0", "+ 0", ". ." or "+ >" splits a token
_TOKEN_CHARS = str.maketrans("123456789inf-", "0" * 12 + "+")


def _bare(text: str):
    """``text`` without its blanks and with ASCII digits, or None when a blank sits inside a token.

    The literal grammar allows blanks next to a separator and nowhere else, so
    the bulk passes read the text as if it had none.  A blank is out of place
    when the characters on its two sides would run together into a number,
    an infinity, ``..`` or ``->``.
    """
    if not text.isascii():
        text = _OTHER_DIGIT_RE.sub(lambda digit: str(int(digit[0])), text)
    parts = text.split()
    if len(parts) > 1:
        tokens = " ".join(parts).translate(_TOKEN_CHARS)
        if "0 0" in tokens or "+ 0" in tokens or ". ." in tokens or "+ >" in tokens:
            return None
    return "".join(parts)


# deletes the numbers, their signs and the letters of "inf" from a segment list
_SEG_NUMBERS = str.maketrans("", "", "0123456789+-inf")


def _segment_list(body: str):
    """The (lo, hi, offset) triples of a ``seg[...]`` body, else None.

    Deleting the numbers from a body of n segments, without its blanks, leaves
    ``(..,),(..,)`` with n groups.  When that skeleton matches, a character in
    the wrong place leaves a bracket, a dot, a comma or a letter in one of the
    fields cut out below, where ``int`` or the infinity tests reject it.  On a
    field of ASCII digits and signs, ``int`` accepts exactly an optional sign
    and digits.
    """
    body = _bare(body)
    if body is None:
        return None
    skeleton = body.translate(_SEG_NUMBERS)
    n = (len(skeleton) + 1) // 6
    if not n or skeleton != ("(..,)," * n)[:-1]:
        return None
    fields = body[1:-1].replace("),(", ",").replace("..", ",").split(",")
    try:
        return [
            (NEG_INF if lo == "-inf" else int(lo), POS_INF if hi == "+inf" else int(hi), int(off))
            for lo, hi, off in zip(*[iter(fields)] * 3, strict=True)
        ]
    except ValueError:
        return None


def parse_element(text: str) -> MonotoneElement:
    """Parse the canonical element syntax: id, shift(k), E{...}, seg[...].

    A ``seg[...]`` literal may have blanks next to its separators, never inside
    a number, an infinity or ``..``.  Without them it is read by C-level string
    passes.  Segments that pass the canonical check, as printed text does,
    are wrapped as they are; any others go to :func:`normalize`.
    """
    s = _literal(text)
    if s[:4] == "seg[" and s[-1:] == "]":
        segs = _segment_list(s[4:-1])
        if segs is None:
            raise InvalidElementError(f"malformed segment list: {text!r}")
        try:
            _check_canonical(segs)
        except InvalidElementError:
            return normalize(segs)
        return MonotoneElement._trusted(segs)
    if s == "id":
        return identity()
    m = _SHIFT_RE.match(s)
    if m:
        try:
            k = int(m.group(1))
        except ValueError:
            raise InvalidElementError(f"not an element literal: {text!r}") from None
        return shift(k)
    m = _EGAPS_RE.match(s)
    if m:
        body = m.group(1).strip()
        try:
            if "_" in body:  # int would read "1_0" as 10, which no other literal accepts
                raise ValueError(body)
            gaps = [int(p) for p in body.split(",")] if body else []
        except ValueError:
            raise InvalidElementError(f"malformed gap list: {text!r}") from None
        # point input: the collapse cache is keyed on points, and zeroing its offsets leaves the idempotent
        segs = _collapse_cached(tuple(sorted(set(gaps)))).pieces
        return MonotoneElement._trusted([(lo, hi, 0) for lo, hi, _ in segs])
    raise InvalidElementError(f"not an element literal: {text!r}")
