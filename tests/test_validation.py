"""The entry checks against their call-per-item references.

core._check_canonical and core.normalize check segments of plain ints and
matching infinities inline and hand anything else to _check_segment.  The
references in helpers.py call _check_segment for every segment.  Both must
accept the same inputs and reject the others with the same exception class
and message: every segment is checked first, then the two ends, then the
neighbouring pairs, so where an input has two defects the order decides
which message wins.

core._check_gaps, almost._checked_pieces and almost.unit_recompose pass
plain ints in whole-collection passes and walk the input item by item only
when a pass fails.  Their references are that walk alone, and the same rule
holds: same verdict, same class, same message, the first defect first.
"""

import random
import re
from collections import namedtuple
from enum import IntEnum

import pytest

from cofinj import almost, core
from cofinj.almost import (
    AlmostMonotoneElement,
    UnitDecomposition,
    _checked_pieces,
    make_almost,
    parse_almost,
    random_almost,
    random_unit,
    unit_recompose,
)
from cofinj.core import (
    NEG_INF,
    POS_INF,
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    Segment,
    _check_canonical,
    _check_gaps,
    collapse_element,
    element_from_gaps,
    normalize,
    parse_element,
    random_element,
)

from helpers import (
    ref_check_canonical,
    ref_check_gaps,
    ref_checked_pieces,
    ref_normalize,
    ref_unit_recompose,
)

NAN = float("nan")


def _outcome(fn, arg):
    """What fn(arg) does: ("ok", its result) or (exception class, message)."""
    try:
        return "ok", fn(arg)
    except Exception as exc:  # noqa: BLE001 - the class is part of the comparison
        return type(exc), str(exc)


def _valid_corpus():
    rng = random.Random(20)
    out = [random_element(rng, rng.randint(0, 4), 3).segments for _ in range(500)]
    out += [
        element_from_gaps(rng.sample(range(-200, 200, 2), 30), rng.sample(range(-200, 200, 2), 30), 2**60).segments
        for _ in range(20)
    ]
    return out


# each a list of (lo, hi, offset); the comment names the defect, or the two
BAD = [
    ([], "empty"),
    ([(NEG_INF, True, 0), (2, POS_INF, 0)], "bool bound"),
    ([(NEG_INF, 1.0, 0), (2, POS_INF, 0)], "float bound"),
    ([(NEG_INF, NAN, 0), (2, POS_INF, 0)], "nan bound"),
    ([(NEG_INF, 0, 0), (NAN, POS_INF, 1)], "nan lo"),
    ([(NEG_INF, 0, 0), (True, POS_INF, 1)], "bool lo"),
    ([(NEG_INF, 0, 0), (1.0, POS_INF, 1)], "float lo"),
    ([(NEG_INF, POS_INF, True)], "bool offset"),
    ([(NEG_INF, POS_INF, 1.0)], "float offset"),
    ([(NEG_INF, POS_INF, NAN)], "nan offset"),
    ([(NEG_INF, 0, 0), (POS_INF, POS_INF, 1)], "+inf as lo"),
    ([(NEG_INF, NEG_INF, 0), (1, POS_INF, 1)], "-inf as hi"),
    ([(NEG_INF, 0, 0), (3, 2, 1), (4, POS_INF, 1)], "empty segment"),
    ([(NEG_INF, 0, 0), (1, POS_INF, 0)], "unmerged pieces"),
    ([(NEG_INF, 0, 0), (0, POS_INF, 1)], "overlapping pieces"),
    ([(NEG_INF, 3, 0), (1, POS_INF, 5)], "overlapping, out of order"),
    ([(NEG_INF, 0, 2), (1, POS_INF, 0)], "out-of-order images"),
    ([(0, POS_INF, 0)], "bounded left end"),
    ([(NEG_INF, 0, 0)], "bounded right end"),
    ([(1, 0, 0)], "empty and bounded"),
    ([(0, 5, 0), (7, POS_INF, 1.5)], "bounded left end, float offset"),
    ([(NEG_INF, 0, 0), (1, 4, 0), (6, 9, True), (10, POS_INF, 1)], "unmerged, bool offset"),
    ([(NEG_INF, 0, 0), (0, 4, 1), (5, 8, 1), (9, 9, 0)], "overlap, unmerged, bounded right end"),
    ([(0, 3, 0), (3, POS_INF, 1)], "bounded left end, overlap"),
    ([(NEG_INF, 0, 0), (1, 4, 0), (5, POS_INF, -9)], "unmerged, then out-of-order images"),
    ([(NEG_INF, 0, 3), (1, 4, 3), (5, POS_INF, 4)], "out-of-order images, then unmerged"),
    ([(NEG_INF, 0, 0), (2, 3, 0), (2, POS_INF, 1)], "overlap after a gap"),
    ([(NEG_INF, 0, 0), (NEG_INF, 5, 1), (6, POS_INF, 1)], "a second -inf"),
]


@pytest.mark.parametrize("raw,what", BAD, ids=[what for _, what in BAD])
def test_check_rejects_like_the_reference(raw, what):
    segs = tuple(Segment(*s) for s in raw)
    got = _outcome(_check_canonical, segs)
    assert got == _outcome(ref_check_canonical, segs)
    assert got[0] != "ok"
    assert _outcome(MonotoneElement, raw) == got


@pytest.mark.parametrize("raw,what", BAD, ids=[what for _, what in BAD])
def test_normalize_rejects_like_the_reference(raw, what):
    for order in (raw, raw[::-1]):
        got, want = _outcome(normalize, order), _outcome(ref_normalize, order)
        if got[0] == "ok":
            # reversing can repair an out-of-order list: normalize sorts
            assert want[0] == "ok" and got[1].segments == want[1].segments
        else:
            assert got == want


def _seg_literal(raw):
    """``raw`` written as a seg[...] literal, or None where a field has no spelling in one."""
    fields = []
    for lo, hi, off in raw:
        if not (type(lo) is int or lo == NEG_INF) or not (type(hi) is int or hi == POS_INF) or type(off) is not int:
            return None
        fields.append(f"({'-inf' if lo == NEG_INF else lo}..{'+inf' if hi == POS_INF else hi},{off:+d})")
    return f"seg[{','.join(fields)}]" if fields else None


def _read_like_normalize(raw):
    """parse_element reads raw's literal as normalize takes raw: the same pieces, or the same class and message."""
    got, want = _outcome(parse_element, _seg_literal(raw)), _outcome(normalize, raw)
    if got[0] == "ok" and want[0] == "ok":
        assert type(got[1]) is MonotoneElement and got[1].pieces == want[1].pieces
    else:
        assert got == want
    return want[0] == "ok"


WRITTEN = [(raw, what) for raw, what in BAD if _seg_literal(raw)]


@pytest.mark.parametrize("raw,what", WRITTEN, ids=[what for _, what in WRITTEN])
def test_a_seg_literal_is_read_as_normalize_reads_its_segments(raw, what):
    for order in (raw, raw[::-1]):
        _read_like_normalize(order)


def test_shuffled_unmerged_overlapping_and_bounded_seg_literals_read_as_normalize():
    rng = random.Random(22)
    accepted = 0
    for segs in _valid_corpus()[::3]:
        variants = [list(segs)]
        shuffled = list(segs)
        rng.shuffle(shuffled)
        variants.append(shuffled)
        # every piece from a finite point on split after that point, so each must be merged back
        split = []
        for lo, hi, o in segs:
            split += [(lo, hi, o)] if lo == NEG_INF or lo == hi else [(lo, lo, o), (lo + 1, hi, o)]
        variants.append(split)
        if len(segs) > 1:
            (_, hi1, o1), (_, hi2, o2) = segs[:2]
            variants.append([segs[0], (hi1, hi2, o2), *segs[2:]])  # overlapping domains
            variants.append([(hi1 - 1, hi1, o1), *segs[1:]])  # a bounded first piece
            variants.append([*segs[:-1], (segs[-1][0], segs[-1][0] + 3, segs[-1][2])])  # a bounded last piece
        for raw in variants:
            accepted += _read_like_normalize(raw)
    assert accepted > 100


def test_printed_text_is_read_without_normalize(monkeypatch):
    def refused(raw):
        raise AssertionError("normalize called")

    rng = random.Random(23)
    elems = [random_element(rng, rng.randint(0, 4), 3) for _ in range(50)]
    monkeypatch.setattr(core, "normalize", refused)
    for e in elems:
        got = parse_element(e.to_seg_text())
        assert type(got) is MonotoneElement and got.pieces == e.pieces
    with pytest.raises(AssertionError, match="normalize called"):
        parse_element("seg[(2..+inf,+1),(-inf..0,+0)]")


def test_check_and_normalize_accept_valid_corpora():
    rng = random.Random(21)
    for segs in _valid_corpus():
        assert _check_canonical(segs) is None and ref_check_canonical(segs) is None
        assert MonotoneElement(segs).segments == segs
        shuffled = list(segs)
        rng.shuffle(shuffled)
        # split a piece in two where it has room, so normalize has a merge to do
        lo, hi, o = shuffled[0]
        if lo != NEG_INF and hi != POS_INF and lo < hi:
            shuffled[:1] = [(lo, lo, o), (lo + 1, hi, o)]
        got = normalize(shuffled)
        assert got.segments == segs == ref_normalize(shuffled).segments
        assert all(type(s) is Segment for s in got.segments)


class Level(IntEnum):
    LOW = -2
    HIGH = 3


def test_int_enum_bounds_are_accepted_by_both():
    raw = [(NEG_INF, Level.LOW, 0), (Level.HIGH, POS_INF, 1)]
    segs = tuple(Segment(*s) for s in raw)
    assert _check_canonical(segs) is None and ref_check_canonical(segs) is None
    assert MonotoneElement(raw).segments == segs
    got, want = normalize(raw[::-1]), ref_normalize(raw[::-1])
    assert got == want and got.to_text() == want.to_text() == "seg[(-inf..-2,+0),(3..+inf,+1)]"


# -- gap sets, almost-monotone middles and unit supports ---------------------------


def _verdict(fn, *args):
    """"ok" when fn(*args) returns, else the exception's (class, message)."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is part of the comparison
        return type(exc), str(exc)
    return "ok"


SIZES = (0, 1, 3, 100, 10**4)
BIG = 2**60


def _valid_gap_sets():
    rng = random.Random(22)
    return [
        frozenset(base + g for g in rng.sample(range(-3 * n - 5, 3 * n + 5), n))
        for n in SIZES
        for base in (0, BIG, -BIG)
    ]


def test_gap_check_accepts_valid_corpus_like_the_reference():
    for gs in _valid_gap_sets():
        assert ref_check_gaps(gs) is None
        assert _check_gaps(gs) == gs == _check_gaps(sorted(gs))
        assert IdempotentGaps(list(gs)).gaps == gs
        if len(gs) <= 100:
            assert collapse_element(gs).dom_gaps() == gs
            assert element_from_gaps(gs, gs, 5).ran_gaps() == gs


# each a list of gap positions; the comment names the defect, or the defects
BAD_GAPS = [
    ([True], "bool"),
    ([1, 2.0], "float"),
    ([NAN, 4], "nan"),
    ([None], "None"),
    (["3"], "str"),
    ([0, 1.5, "x"], "float and str"),
    ([None, True, 2.5, 7], "None, bool and float"),
    ([*range(10**4), 0.5], "one float among 10^4 ints"),
    ([BIG, -BIG, False], "bool among 2^60 positions"),
]


@pytest.mark.parametrize("raw,what", BAD_GAPS, ids=[what for _, what in BAD_GAPS])
def test_gap_check_rejects_like_the_reference(raw, what):
    got = _verdict(_check_gaps, raw)
    assert got == _verdict(ref_check_gaps, frozenset(raw))
    assert got[0] is InvalidElementError
    for entry in (IdempotentGaps, collapse_element, lambda g: element_from_gaps(g, [], 0)):
        assert _verdict(entry, raw) == got
    assert _verdict(element_from_gaps, [], raw, 0) == got


def _valid_windows():
    """(d, dl, u, ur, middle) with middles of every size in SIZES, windows and images at 0 and 2^60."""
    rng = random.Random(23)
    out = []
    for n in SIZES:
        for base, lift in ((0, 0), (BIG, 0), (-BIG, BIG), (0, -BIG)):
            dl, ur = rng.randint(-3, 3) + lift, rng.randint(-3, 3) + lift
            d, u = base - n - 5, base + n + 5
            keys = rng.sample(range(d + 1, u), n)
            vals = rng.sample(range(d + dl + 1, u + ur), n)
            out.append((d, dl, u, ur, dict(zip(keys, vals))))
    return out


def test_middle_check_accepts_valid_corpus_like_the_reference():
    for d, dl, u, ur, mid in _valid_windows():
        want = ref_checked_pieces(d, dl, u, ur, mid)
        assert _checked_pieces(d, dl, u, ur, mid) == want
        assert _checked_pieces(d, dl, u, ur, list(mid.items())) == want
        assert make_almost(d, dl, u, ur, mid).pieces == want


# the window (0, 10) with tails x -> x + 2 and x -> x - 1: middle points lie in
# 1..9 and middle values in 3..8; each entry names the defect, or the defects
W = (0, 2, 10, -1)
BAD_MIDDLES = [
    (W, {True: 5}, "bool point"),
    (W, {2: True}, "bool value"),
    (W, {2.0: 5}, "float point"),
    (W, {2: 5.5}, "float value"),
    (W, {NAN: 5}, "nan point"),
    (W, {2: NAN}, "nan value"),
    (W, {None: 5}, "None point"),
    (W, {2: "5"}, "str value"),
    (W, {2: 5, 0: 6}, "point at the left end"),
    (W, {2: 5, 10: 6}, "point at the right start"),
    (W, {-3: 5}, "point below the window"),
    (W, {12: 5}, "point above the window"),
    (W, {2: 5, 3: 2}, "value at the left tail's last image"),
    (W, {2: 5, 3: 9}, "value at the right tail's first image"),
    (W, {2: -7}, "value far below"),
    (W, {2: 5, 3: 4, 4: 5}, "repeated value"),
    (W, {12: 5, 2: 5.5}, "point outside, then float value"),
    (W, {2: 5.5, 12: 5}, "float value, then point outside"),
    (W, {2: 5, 3: 5, 4: 2}, "repeated value, then value at a tail image"),
    (W, {4: 2, 2: 5, 3: 5}, "value at a tail image, then repeated value"),
    (W, {2: 5, 3: 5, 12: 1, 5: "x"}, "repeated, outside and str"),
    (W, [(2, 5), (2, 6)], "pairs listing a point twice"),
    (W, [(2, 5), (3,)], "a pair of one"),
    ((0.0, 2, 10, -1), {12: 5}, "float left end, point outside"),
    ((0, True, 10, -1), {2: 5}, "bool tail offset"),
    ((0, 2, 10, 1.0), {2: 5}, "float right offset"),
    ((0, 2, None, -1), {}, "None right start"),
    ((10, 2, 0, -1), {2: 5.5}, "empty window, float value"),
    ((0, 12, 10, -1), {12: 5}, "tail images collide, point outside"),
    ((BIG, 0, BIG + 4, 0), {BIG + 1: BIG + 2, BIG + 2: BIG + 2}, "repeated 2^60 value"),
    ((BIG, 0, BIG + 4, 0), {BIG + 1: BIG, BIG + 2: BIG + 1}, "2^60 value at a tail image"),
    ((BIG, 0, BIG + 4, 0), {BIG: BIG + 1}, "2^60 point at the left end"),
]


@pytest.mark.parametrize("tails,mid,what", BAD_MIDDLES, ids=[what for _, _, what in BAD_MIDDLES])
def test_middle_check_rejects_like_the_reference(tails, mid, what):
    got = _verdict(_checked_pieces, *tails, mid)
    assert got == _verdict(ref_checked_pieces, *tails, mid)
    assert got[0] is InvalidElementError
    assert _verdict(make_almost, *tails, mid) == got
    assert _verdict(AlmostMonotoneElement, *tails, mid) == got


def _derangement(rng, points):
    """A single cycle through the points, as (point, image) pairs."""
    order = list(points)
    rng.shuffle(order)
    return tuple(zip(order, order[1:] + order[:1]))


def _valid_supports():
    rng = random.Random(24)
    out = [UnitDecomposition((), k) for k in (0, 3, -BIG)]
    # a support needs two points or none: one point would be a fixed point
    for n in (2, 3, 100, 10**4):
        for base, k in ((0, 0), (BIG, -3), (-BIG, BIG)):
            out.append(UnitDecomposition(_derangement(rng, rng.sample(range(base - 2 * n, base + 2 * n), n)), k))
    return out


Pair = namedtuple("Pair", "point image")


def test_unit_recompose_accepts_valid_corpus_like_the_reference():
    for dec in _valid_supports():
        want = ref_unit_recompose(dec)
        assert unit_recompose(dec) == want
        assert unit_recompose(UnitDecomposition([list(p) for p in dec.support_perm], dec.shift)) == want
        assert unit_recompose(UnitDecomposition([Pair(*p) for p in dec.support_perm], dec.shift)) == want


SWAP = ((0, 1), (1, 0))
BAD_SUPPORTS = [
    (((0, 1, 2), (1, 0)), 0, "a triple"),
    ((0, (1, 0)), 0, "an int entry"),
    (("ab", (1, 0)), 0, "a str entry"),
    (({0, 1}, (1, 0)), 0, "a set entry"),
    (((True, 0), (0, True)), 0, "bool points"),
    (((0, 1.0), (1.0, 0)), 0, "float points"),
    (((0, NAN), (NAN, 0)), 0, "nan points"),
    (((0, None), (None, 0)), 0, "None points"),
    (((0, "1"), ("1", 0)), 0, "str points"),
    (((0, 1), (0, 2), (1, 0), (2, 0)), 0, "a repeated point"),
    (((0, 1),), 0, "not a bijection"),
    (((5, 5),), 0, "one point, fixed"),
    (((0, 1), (1, 0), (2, 2)), 0, "a fixed point"),
    (((BIG, BIG + 1), (BIG + 1, BIG)), 1.5, "float shift"),
    (SWAP, True, "bool shift"),
    (SWAP, None, "None shift"),
    (((0, 1), (1, 0), (2, 2), (3, 3.5)), 0, "fixed point and float point"),
    (((0, 1), (0, 1)), 0, "repeated pair, not a bijection"),
    (((0, 0), (1, 2)), 0, "fixed point, not a bijection"),
    (((0, 0),), 1.5, "fixed point, float shift"),
]


@pytest.mark.parametrize("support,k,what", BAD_SUPPORTS, ids=[what for _, _, what in BAD_SUPPORTS])
def test_unit_recompose_rejects_like_the_reference(support, k, what):
    dec = UnitDecomposition(support, k)
    got = _verdict(unit_recompose, dec)
    assert got == _verdict(ref_unit_recompose, dec)
    assert got[0] is InvalidElementError


@pytest.mark.parametrize(
    "call,bad",
    [
        (lambda: IdempotentGaps(5), 5),
        (lambda: IdempotentGaps([[1]]), [[1]]),
        (lambda: collapse_element(None), None),
        (lambda: element_from_gaps(5, [], 0), 5),
        (lambda: element_from_gaps([[1]], [], 0), [[1]]),
        (lambda: unit_recompose(UnitDecomposition(5, 0)), 5),
    ],
    ids=["IdempotentGaps(5)", "IdempotentGaps([[1]])", "collapse(None)", "from_gaps(5)", "from_gaps([[1]])", "unit(5)"],
)
def test_non_iterable_or_unhashable_input_is_an_invalid_element(call, bad):
    with pytest.raises(InvalidElementError, match=re.escape(f"got {bad!r}")):
        call()


@pytest.mark.parametrize("read", [parse_element, parse_almost])
@pytest.mark.parametrize("bad", [5, None, b"id", ["am[d=0,L=0,u=1,R=0;]"]], ids=["int", "None", "bytes", "list"])
def test_a_literal_that_is_not_a_string_is_an_invalid_element(read, bad):
    message = f"an element literal must be a string, got {type(bad).__name__}"
    with pytest.raises(InvalidElementError, match=rf"\A{message}\Z"):
        read(bad)


def test_int_enum_gaps_middles_and_supports_are_accepted_by_both():
    gaps = {Level.LOW, 5}
    assert ref_check_gaps(frozenset(gaps)) is None
    assert IdempotentGaps(gaps).to_text() == "E{-2,5}"
    assert element_from_gaps(gaps, [Level.HIGH], Level.HIGH).ran_gaps() == {3}
    tails, mid = (Level.LOW, 0, Level.HIGH, 0), {0: Level.HIGH - 2, 1: 0}
    assert _checked_pieces(*tails, mid) == ref_checked_pieces(*tails, mid)
    assert make_almost(*tails, mid).to_text() == "am[d=-2,L=0,u=3,R=0; 0->1, 1->0]"
    dec = UnitDecomposition(((Level.LOW, Level.HIGH), (Level.HIGH, Level.LOW)), Level.HIGH)
    assert unit_recompose(dec) == ref_unit_recompose(dec)


def _counting_is_int(monkeypatch):
    calls = []
    real = core._is_int

    def counting(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(core, "_is_int", counting)
    monkeypatch.setattr(almost, "_is_int", counting)
    return calls


def test_plain_int_input_runs_no_per_point_int_test(monkeypatch):
    gap_sets = _valid_gap_sets()
    windows = _valid_windows()
    supports = _valid_supports()
    calls = _counting_is_int(monkeypatch)
    for gs in gap_sets:
        IdempotentGaps(gs)
        if len(gs) <= 100:
            collapse_element(gs)
            element_from_gaps(gs, gs, BIG)
    for d, dl, u, ur, mid in windows:
        make_almost(d, dl, u, ur, mid)
        make_almost(d, dl, u, ur, mid.items())
    for dec in supports:
        unit_recompose(dec)
    e = random_almost(25, window=50, max_middle=20)
    AlmostMonotoneElement(e.left_end, e.left_offset, e.right_start, e.right_offset, e.middle)
    parse_almost(e.to_text())
    random_unit(26, window=40, max_support=30)
    assert calls == []
    # the patch is live: anything but a plain int takes the per-point test
    IdempotentGaps([Level.LOW])
    make_almost(0, 0, 3, 0, {Level.LOW + 3: 2})
    unit_recompose(UnitDecomposition(((0, Level.HIGH), (Level.HIGH, 0)), 0))
    assert len(calls) >= 3
