"""The canonical-form check and normalize against their call-per-segment references.

core._check_canonical and core.normalize check segments of plain ints and
matching infinities inline and hand anything else to _check_segment.  The
references in helpers.py call _check_segment for every segment.  Both must
accept the same inputs and reject the others with the same exception class
and message: every segment is checked first, then the two ends, then the
neighbouring pairs, so where an input has two defects the order decides
which message wins.
"""

import random
from enum import IntEnum

import pytest

from cofinj.core import (
    NEG_INF,
    POS_INF,
    MonotoneElement,
    Segment,
    _check_canonical,
    element_from_gaps,
    normalize,
    random_element,
)

from helpers import ref_check_canonical, ref_normalize

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
