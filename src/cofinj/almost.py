"""Almost-monotone injective partial selfmaps of Z with cofinite domain and image.

These are the maps that become monotone after deleting finitely many domain
points.  Outside a finite window such a map is still a translation on each
side, and inside it is a finite injective patch, so like a monotone element
it is a translation on finitely many pieces.  An element is stored exactly as
a monotone one is: the tuple of its domain-sorted maximal ``(lo, hi,
offset)`` translation pieces, the first from -inf and the last to +inf, only
without the requirement that the piece images increase.  The map is
monotone exactly when they do.  Maximal pieces are a normal form, so
equality of maps is equality of piece tuples.

The window view is derived from the pieces: ``x -> x + left_offset`` for
``x <= left_end``, ``x -> x + right_offset`` for ``x >= right_start``, and a
finite dict ``middle`` on the open window in between (keys absent from the
dict are domain gaps).  The window is minimal, i.e. neither end point can be
absorbed into its tail, and a total translation (a single piece) reports the
window (0, 1).

Monoid structure (compose/inverse) matches the monotone case pointwise, and
the monotone elements embed via ``from_monotone`` / ``to_monotone``, which
pass the piece tuple across.  Composition passes both factors' pieces, in
domain order, to the segment kernel that monotone ``*`` uses.  The kernel
finds the right factor's pieces under each left piece's image by bisection
once the left images turn back, so the cost is O(p log p) in the pieces,
independent of the window width and the offsets.

Outside data is validated once, where it enters: the constructor,
:func:`make_almost`, :func:`parse_almost` and :func:`unit_recompose`, whose
checked points ``core._graft`` adds to translation pieces in O(n log n).
Results built from pieces of elements that are already canonical (units,
compositions, inverses, conversions) are canonical by construction and
wrapped by :meth:`AlmostMonotoneElement._trusted` without a second check.
"""

from __future__ import annotations

import random
from itertools import chain
from operator import eq
from typing import NamedTuple

from . import _kernel
from .core import (
    NEG_INF,
    POS_INF,
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    _bare,
    _check_element,
    _gaps_between,
    _graft,
    _image_gaps,
    _inverted,
    _is_int,
    _literal,
    _PieceMap,
    _quoted,
    _run_points,
    _translation_off,
    _window,
    identity,
)


class AlmostMonotoneElement(_PieceMap):
    """An almost-monotone element, stored as ``pieces``, the tuple of its maximal translation pieces.

    Build one with :func:`make_almost` or :func:`parse_almost`; this
    constructor takes the same window data but also requires the window to
    be minimal.
    """

    __slots__ = ()

    def __init__(self, left_end, left_offset, right_start, right_offset, middle):
        pieces = _checked_pieces(left_end, left_offset, right_start, right_offset, middle)
        object.__setattr__(self, "pieces", pieces)
        # merging absorbs every middle point that continues a tail, so the
        # window read back off the pieces is the minimal one
        if (self.left_end, self.right_start) != (left_end, right_start):
            raise InvalidElementError(
                f"window ({left_end}, {right_start}) is not minimal: "
                f"the map's window is ({self.left_end}, {self.right_start})"
            )

    # the benchmark's tracer looks these up in each element class's own namespace
    dom_gaps = _PieceMap.dom_gaps
    ran_gaps = _PieceMap.ran_gaps

    # -- the window view ------------------------------------------------------

    @property
    def left_end(self) -> int:
        return _window(self.pieces)[0]

    @property
    def right_start(self) -> int:
        return _window(self.pieces)[1]

    @property
    def middle(self) -> dict:
        """The map on the open window as a new dict, keys in increasing order."""
        return {x: x + off for lo, hi, off in self.pieces[1:-1] for x in range(lo, hi + 1)}

    # -- monoid structure ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, _PieceMap):
            return compose_almost(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, MonotoneElement):
            return compose_almost(other, self)
        return NotImplemented

    def inverse(self) -> "AlmostMonotoneElement":
        return inverse_almost(self)

    # -- text -----------------------------------------------------------------

    def to_text(self) -> str:
        p = self.pieces
        d, u = _window(p)
        body = f"d={d},L={p[0][2]},u={u},R={p[-1][2]}"
        pairs = ", ".join([f"{x}->{x + off}" for lo, hi, off in p[1:-1] for x in range(lo, hi + 1)])
        return f"am[{body}; {pairs}]" if pairs else f"am[{body};]"


def _middle_dict(middle) -> dict:
    """The middle as a dict, from a mapping or from (point, value) pairs listing each point once."""
    if hasattr(middle, "keys"):
        return dict(middle)
    try:
        pairs = iter(middle)
    except TypeError:
        raise InvalidElementError("middle must be a mapping or (point, value) pairs") from None
    mid = {}
    for pair in pairs:
        try:
            k, v = pair
            repeated = k in mid
        except (TypeError, ValueError):
            raise InvalidElementError("middle entries must be integer pairs") from None
        if repeated:
            raise InvalidElementError(f"middle point {k} listed twice")
        mid[k] = v
    return mid


def _checked_pieces(d, dl, u, ur, middle) -> tuple:
    """Maximal pieces of a window with tails x -> x + dl up to d and x -> x + ur from u, validated.

    A middle of plain ints passes three C-level passes over the whole dict:
    the types, the four window bounds, and the count of distinct values.  Only
    a middle that fails one of them is walked entry by entry, in dict order,
    and only that walk raises, so the first defect reported and its message
    do not depend on which pass caught it.
    """
    mid = _middle_dict(middle)
    if not type(d) is type(dl) is type(u) is type(ur) is int:
        for v in (d, dl, u, ur):
            if not _is_int(v):
                raise InvalidElementError("tail data must be integers")
    if d >= u:
        raise InvalidElementError("left end of the window must lie below the right start")
    if d + dl >= u + ur:
        raise InvalidElementError("tail images collide: left image must end below the right image")
    vals = mid.values()
    # the type pass comes first, so min and max only ever compare ints
    if mid and not (
        {*map(type, mid), *map(type, vals)} <= {int}
        and d < min(mid)
        and max(mid) < u
        and d + dl < min(vals)
        and max(vals) < u + ur
        and len(set(vals)) == len(mid)
    ):
        seen = set()
        for k, v in mid.items():
            if not (_is_int(k) and _is_int(v)):
                raise InvalidElementError("middle entries must be integer pairs")
            if not d < k < u:
                raise InvalidElementError(f"middle point {k} outside the open window ({d}, {u})")
            if not d + dl < v < u + ur:
                raise InvalidElementError(f"middle value {v} collides with a tail image")
            if v in seen:
                raise InvalidElementError(f"middle is not injective: value {v} repeated")
            seen.add(v)
    return tuple(_graft(((NEG_INF, d, dl), (u, POS_INF, ur)), mid.items()))


def make_almost(left_end, left_offset, right_start, right_offset, middle) -> AlmostMonotoneElement:
    """Validating constructor; the window need not be minimal.

    ``middle`` is a mapping or an iterable of (point, value) pairs.  A
    middle of plain ints is checked in C-level passes over the whole dict,
    anything else entry by entry, with the same messages.  Merging the
    pieces absorbs middle points that continue a tail, so the result is
    canonical without a second check.
    """
    return AlmostMonotoneElement._trusted(
        _checked_pieces(left_end, left_offset, right_start, right_offset, middle)
    )


def from_monotone(elem: MonotoneElement) -> AlmostMonotoneElement:
    """The same map in almost-monotone form: the segments are its pieces."""
    _check_element(elem, "elem")
    return AlmostMonotoneElement._trusted(elem.pieces)


def to_monotone(elem: AlmostMonotoneElement) -> MonotoneElement:
    """Convert back to segment form; fails when the map is not monotone."""
    _check_element(elem, "elem")
    if not elem.is_monotone():
        raise InvalidElementError("element is not monotone")
    # maximal pieces with increasing images are exactly the canonical segments
    return MonotoneElement._trusted(elem.pieces)


def as_almost(elem) -> AlmostMonotoneElement:
    if isinstance(elem, MonotoneElement):
        return from_monotone(elem)
    return elem


def canonicalize(elem):
    """Segment form whenever the map is monotone, for output; ``pieces`` compares maps of either class.

    Any other value comes back as it is: the evaluator passes the integers
    and booleans it prints, and the members of pairs and sets, through here.
    """
    if isinstance(elem, AlmostMonotoneElement) and elem.is_monotone():
        return MonotoneElement._trusted(elem.pieces)
    return elem


def almost_identity() -> AlmostMonotoneElement:
    return from_monotone(identity())


def compose_almost(a, b) -> AlmostMonotoneElement:
    """a then b, pointwise identical to the monotone composition; either may be monotone.

    Both factors' pieces go through the segment kernel in domain order, as
    they are stored, and the kernel's output is the result's maximal pieces.
    """
    # inline checks: this sits behind almost-monotone *
    if not isinstance(a, _PieceMap):
        raise InvalidElementError(f"a must be an element, got {a!r}")
    if not isinstance(b, _PieceMap):
        raise InvalidElementError(f"b must be an element, got {b!r}")
    return AlmostMonotoneElement._trusted(_kernel.compose_segments(a.pieces, b.pieces))


def inverse_almost(a) -> AlmostMonotoneElement:
    if not isinstance(a, _PieceMap):
        raise InvalidElementError(f"a must be an element, got {a!r}")
    # a's pieces turned around are maximal too: merging two of them would merge two of a's
    return AlmostMonotoneElement._trusted(sorted(_inverted(a.pieces)))


# -- minimal exception sets ------------------------------------------------------


def minimal_exceptions(elem) -> frozenset:
    """A minimum-cardinality set of domain points whose removal leaves the map monotone.

    Only middle points can take part in an order violation (tail images bracket
    every middle value), so the kept points are a longest increasing run of
    middle values; inner pieces have disjoint image intervals, so such a run
    takes each inner piece whole or not at all.  A backward pass gives each
    inner piece its run, the largest length of an increasing run of pieces
    that starts there.  One forward pass then keeps, for each run length still
    needed, the last piece that starts a run of that length above the values
    kept so far: every piece it passes over is removed as early as possible,
    so among all minimum witnesses this removes the lexicographically smallest
    set.  Quadratic in the inner pieces, whatever their widths.
    """
    return _run_points([p[:2] for p in _removed_pieces(elem)])


def _removed_pieces(elem) -> list:
    """The inner pieces that minimal_exceptions removes, in domain order."""
    _check_element(elem, "elem")
    if elem.is_monotone():
        return []
    later = []  # (first value, run) of the pieces after the current one
    pieces = []  # (piece, first value, run, first value of the next piece with that run), last piece first
    next_of_run = {}
    for piece in reversed(elem.pieces[1:-1]):
        lo, hi, off = piece
        v = lo + off
        best = 0
        for w, s in later:
            if w > v and s > best:
                best = s
        r = hi - lo + 1 + best
        later.append((v, r))
        pieces.append((piece, v, r, next_of_run.get(r, NEG_INF)))
        next_of_run[r] = v
    # pieces of one run length have decreasing values, so a piece is the last
    # one above the floor exactly when the next piece of its run length is not
    need = max(next_of_run, default=0)
    floor = NEG_INF
    removed = []
    for (lo, hi, off), v, r, after in reversed(pieces):
        if r == need and v > floor >= after:
            floor = hi + off
            need -= hi - lo + 1
        else:
            removed.append((lo, hi, off))
    return removed


def monotonizers(elem):
    """Idempotents (left, right, two-sided) whose products with the element are monotone.

    left restricts the domain to its monotone part, right restricts the image
    accordingly, and the third is their meet; composing on the matching side
    always lands back in the monotone monoid.  The gap runs are read off the
    pieces that minimal_exceptions keeps, between their domains and between
    their images, so the cost does not grow with the gap widths.
    """
    removed = set(_removed_pieces(elem))
    kept = [p for p in elem.pieces if p not in removed]
    left = IdempotentGaps._of_runs(_gaps_between(kept))
    right = IdempotentGaps._of_runs(_image_gaps(kept))
    return left, right, left.meet(right)


# -- the unit group ---------------------------------------------------------------


class UnitDecomposition(NamedTuple):
    """A unit split as a finite-support permutation followed by a shift:
    (x)unit == (x)perm + shift."""

    support_perm: tuple
    shift: int


def unit_decompose(elem) -> UnitDecomposition:
    """Split a unit (total bijective element) into its permutation and shift parts."""
    _check_element(elem, "elem")
    k = elem.left_offset
    if elem._dom_runs() or elem.right_offset != k:
        raise InvalidElementError("element is not a unit")
    # the tails move by k, so the support lies in the pieces with another offset
    support = tuple(
        (x, x + off - k) for lo, hi, off in elem.pieces if off != k for x in range(lo, hi + 1)
    )
    return UnitDecomposition(support, k)


def unit_recompose(dec: UnitDecomposition) -> AlmostMonotoneElement:
    """The unit x -> (x)perm + shift, validated.

    A support of plain-int tuple or list pairs passes C-level passes over
    the entry types, their lengths and the point types; any other support is
    checked entry by entry.  The checked permutation goes to :func:`_permuted`
    with no gaps, which builds the unit in O(s log s) for s support points.
    """
    try:
        support = tuple(dec.support_perm)
    except TypeError:
        raise InvalidElementError(
            f"support permutation must be an iterable of integer pairs, got {dec.support_perm!r}"
        ) from None
    if not (
        {*map(type, support)} <= {tuple, list}
        and {*map(len, support)} <= {2}
        and {*map(type, chain.from_iterable(support))} <= {int}
    ) and not all(isinstance(p, (tuple, list)) and len(p) == 2 and all(map(_is_int, p)) for p in support):
        raise InvalidElementError("support permutation entries must be integer pairs")
    perm = dict(support)
    if len(perm) != len(support):
        raise InvalidElementError("support permutation repeats a point")
    if set(perm.values()) != set(perm):
        raise InvalidElementError("support permutation is not a bijection of its support")
    if any(map(eq, perm, perm.values())):
        raise InvalidElementError("support permutation lists a fixed point")
    k = dec.shift
    if type(k) is not int and not _is_int(k):
        raise InvalidElementError("shift must be an integer")
    return _permuted((), perm, k)


def _permuted(gap_runs, perm: dict, k: int = 0) -> AlmostMonotoneElement:
    """x -> (x)perm + k on Z minus the (lo, hi) gap runs: every finite permutation is built here."""
    base = _translation_off(sorted([*gap_runs, *[(x, x) for x in perm]]), k)
    return AlmostMonotoneElement._trusted(_graft(base, [(x, y + k) for x, y in perm.items()]))


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

# deletes the numbers and their signs, and so the "-" of each "->", from a literal
_AM_NUMBERS = str.maketrans("", "", "0123456789+-")


def _head(text: str):
    """[d, L, u, R] from the text between ``am[`` and ``;``, else None."""
    text = _bare(text)
    if text is None or text.translate(_AM_NUMBERS) != "d=,L=,u=,R=":
        return None
    try:
        return [*map(int, text[2:].replace(",L=", ",").replace(",u=", ",").replace(",R=", ",").split(","))]
    except ValueError:
        return None


def _middle(text: str):
    """The middle dict from the text between ``;`` and ``]``, else None.

    Deleting the numbers from a middle of m entries, without its blanks,
    leaves ``>`` m times joined by commas.  When that skeleton matches, a
    character in the wrong place leaves a ``>`` or a comma in one of the
    fields cut out below, where ``int`` rejects it.  A point listed twice also
    gives None, for :func:`parse_almost` to report.
    """
    # the printer puts a blank after each comma, where one is always allowed; a single pass drops them
    text = _bare(text.replace(", ", ","))
    if text is None:
        return None
    m = text.count(">")
    if text.translate(_AM_NUMBERS) != (">," * m)[:-1]:
        return None
    try:
        ends = [*map(int, text.replace("->", ",").split(","))] if text else []
    except ValueError:
        return None
    middle = dict(zip(ends[::2], ends[1::2]))
    # fewer keys than half the numbers: a number without an arrow, or a point listed twice
    return middle if 2 * len(middle) == len(ends) else None


def _entry(text: str) -> tuple:
    """(k, v) of one middle entry ``k->v``."""
    pair = _middle(text)
    if not pair:
        raise InvalidElementError(f"malformed middle entry: {_quoted(text)}")
    return pair.popitem()


def parse_almost(text: str) -> AlmostMonotoneElement:
    """Parse the am[d=..,L=..,u=..,R=..; k->v, ...] syntax.

    Blanks may sit next to a separator, never inside a number or ``->``.
    Without them the literal is read by C-level string passes, and its data
    goes to :func:`make_almost`, which checks it.  A middle that the passes
    reject is read again entry by entry, so the first malformed entry or
    repeated point is reported in text order.
    """
    s = _literal(text)
    head, semicolon, body = s[3:-1].partition(";")
    tails = _head(head) if s[:3] == "am[" and s[-1:] == "]" and semicolon else None
    if tails is None:
        raise InvalidElementError(f"not an almost-monotone literal: {_quoted(text)}")
    middle = _middle(body)
    if middle is None:
        # lazily, so make_almost sees a malformed entry and a repeated point in text order
        middle = (_entry(part.strip()) for part in body.split(",")) if body.strip() else ()
    return make_almost(*tails, middle)
