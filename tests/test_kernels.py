"""The one-pass segment kernel against the two-pass reference in helpers.py.

compose_segments merges each output piece into the previous one as it emits
it; ref_compose_segments makes the composite first and merges it in a second
pass.  Both must give the same list on two canonical segment lists, and on an
almost-monotone left factor's pieces against the right factor's pieces, with
the left pieces in domain order (as the library passes them), in image order
or shuffled.
"""

import random

import pytest

from cofinj import _kernel
from cofinj.almost import almost_identity, as_almost, make_almost, random_almost
from cofinj.core import NEG_INF, POS_INF, element_from_gaps, normalize, random_element, shift

from helpers import _fastest_ms, ref_compose_almost, ref_composite_pieces, ref_compose_segments, ref_merge_pieces


def _same_as_reference(pairs):
    """Assert the kernel equals the reference on each (a, b) piece-list pair; count the merges."""
    merges = 0
    for a, b in pairs:
        want = ref_compose_segments(a, b)
        assert _kernel.compose_segments(a, b) == want, (a, b)
        merges += len(ref_composite_pieces(a, b)) - len(want)
    return merges


def test_kernel_is_exact_on_big_values():
    a = shift(10**40)
    assert a * a == shift(2 * 10**40)
    got = _kernel.compose_segments(a.segments, shift(-(10**40)).segments)
    assert got == list(shift(0).segments)


def test_kernel_name_reports():
    assert _kernel.kernel_name() == "pure"


def test_one_pass_matches_two_passes_on_small_elements():
    rng = random.Random(10)
    pairs = []
    for _ in range(3000):
        a, b = random_element(rng, 3, 3), random_element(rng, 3, 3)
        pairs.append((a.segments, b.segments))
        pairs.append((a.segments, a.inverse().segments))
    assert _same_as_reference(pairs) > 0


def _long_element(rng, k):
    """An element with about 70 segments: 35 isolated gaps on each side."""
    dom = rng.sample(range(-400, 400, 2), 35)
    ran = rng.sample(range(-400, 400, 2), 35)
    return element_from_gaps(dom, ran, k)


def test_one_pass_matches_two_passes_on_long_elements():
    rng = random.Random(11)
    pairs = []
    for _ in range(60):
        a, b = _long_element(rng, rng.randint(-3, 3)), _long_element(rng, rng.randint(-3, 3))
        assert len(a.segments) >= 60
        pairs += [(a.segments, b.segments), (a.segments, a.inverse().segments)]
    assert _same_as_reference(pairs) > 0


def test_one_pass_matches_two_passes_at_2_to_the_60():
    rng = random.Random(12)
    big = 2**60
    pairs = []
    for _ in range(500):
        a, b = random_element(rng, 3, 3), random_element(rng, 3, 3)
        # a moved up by 2^60 and translated by another 2^60; b placed on a's image
        wide_a = normalize([(lo + big, hi + big, o + big) for lo, hi, o in a.segments])
        wide_b = normalize([(lo + 2 * big, hi + 2 * big, o - 3 * big) for lo, hi, o in b.segments])
        pairs.append((wide_a.segments, wide_b.segments))
        pairs.append((wide_a.segments, wide_a.inverse().segments))
    assert any(abs(o) >= big for a, _ in pairs for _, _, o in a)
    assert _same_as_reference(pairs) > 0


def _image_lo(piece):
    return piece[0] + piece[2]


def test_one_pass_matches_two_passes_on_almost_pieces_in_any_order():
    # b's pieces are maximal, so two touching equal-offset outputs never come
    # from one piece of a: every merge counted here spans two pieces of a
    rng = random.Random(13)
    pairs = []
    for _ in range(3000):
        a = random_almost(rng, 2, 5, 6)
        b = random_almost(rng, 2, 5, 6) if rng.random() < 0.7 else as_almost(random_element(rng, 3, 2))
        for right in (b, a.inverse()):
            # in domain order, the kernel's output is the composite's maximal pieces
            assert _kernel.compose_segments(a.pieces, right.pieces) == list(ref_compose_almost(a, right).pieces)
            shuffled = list(a.pieces)
            rng.shuffle(shuffled)
            for left in (a.pieces, sorted(a.pieces, key=_image_lo), shuffled):
                pairs.append((left, right.pieces))
    assert any(sorted(a, key=_image_lo) != sorted(a) for a, _ in pairs)
    assert _same_as_reference(pairs) > 100


@pytest.mark.width
@pytest.mark.parametrize("at", [0, 2**60])
def test_scrambled_left_factor_costs_n_log_n(at):
    # i -> (7919 i mod n) + 1 on 1..n: each image jumps far ahead of the last or
    # turns back, so a forward walk over the right factor would be quadratic
    n = 51_200
    x = make_almost(at, 0, at + n + 1, 0, {at + i: at + 7919 * i % n + 1 for i in range(1, n + 1)})
    assert len(x.pieces) == n + 2  # every point is a piece of its own
    ms, got = _fastest_ms(lambda: x * x.inverse())
    assert got == almost_identity()
    assert ms < 1000, f"{ms:.0f} ms"


def test_merges_stop_at_gaps_and_offset_changes():
    e = normalize([(NEG_INF, 0, 0), (2, 5, 0), (6, 9, 1), (11, POS_INF, 1)])
    # e then id: the equal offsets on both sides of e's gap at 1 stay apart
    assert _kernel.compose_segments(e.segments, shift(0).segments) == list(e.segments)
    # a piece that touches its predecessor with another offset stays apart too
    assert _kernel.compose_segments(shift(0).segments, e.segments) == list(e.segments)
    # touching pieces from two pieces of a merge once their offsets agree
    assert _kernel.compose_segments(e.segments, e.inverse().segments) == [
        (NEG_INF, 0, 0),
        (2, 9, 0),
        (11, POS_INF, 0),
    ]


def _random_piece_list(rng):
    """Sorted disjoint pieces: touching runs with equal offsets, gaps, 2^60 offsets, +-inf or finite ends."""
    big = rng.choice([0, 2**60, -(2**60)])
    lo = NEG_INF if rng.random() < 0.7 else rng.randint(-5, 5) + big
    hi = (lo if lo != NEG_INF else rng.randint(-5, 5) + big) + rng.randint(0, 3)
    pieces = []
    for _ in range(rng.randint(0, 8)):
        off = pieces[-1][2] if pieces and rng.random() < 0.5 else rng.choice([0, 1, -2, big, big + 1])
        pieces.append((lo, hi, off))
        lo = hi + 1 + rng.choice([0, 0, 1, 3])
        hi = lo + rng.randint(0, 3)
    pieces.append((lo, POS_INF if rng.random() < 0.7 else hi, rng.choice([0, big])))
    return pieces


def test_merge_pieces_matches_the_reference_loop():
    rng = random.Random(14)
    merges = 0
    for _ in range(3000):
        pieces = _random_piece_list(rng)
        want = ref_merge_pieces(pieces)
        got = _kernel.merge_pieces(pieces)
        assert got == want, pieces
        assert all(type(p) is tuple for p in got)
        merges += len(pieces) - len(want)
    assert merges > 1000
    assert _kernel.merge_pieces([]) == []
