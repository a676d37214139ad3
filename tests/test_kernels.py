"""The one-pass segment kernel against the two-pass reference in helpers.py.

compose_segments merges each output piece into the previous one as it emits
it; ref_compose_segments makes the composite first and merges it in a second
pass.  Both must give the same list on two canonical segment lists, and on an
almost-monotone left factor's pieces against the right factor's pieces, with
the left pieces in domain order (as the library passes them), in image order
or shuffled.  Hand-made probes send one left image into each branch of the
walk over the right pieces (a gap, an image that ends at a piece's end or
one point past it, three or more pieces, infinite ends, 2^60 offsets), once
on the forward walk and once after a turn-back, where the kernel bisects.
"""

import random

import pytest

from cofinj import _kernel
from cofinj.almost import almost_identity, as_almost, make_almost, random_almost
from cofinj.core import NEG_INF, POS_INF, element_from_gaps, identity, normalize, random_element, shift

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


def _scrambled(at):
    """i -> (7919 i mod n) + 1 on at+1..at+n for n = 51,200, the identity elsewhere: n + 2 pieces."""
    n = 51_200
    x = make_almost(at, 0, at + n + 1, 0, {at + i: at + 7919 * i % n + 1 for i in range(1, n + 1)})
    assert len(x.pieces) == n + 2  # every point is a piece of its own
    return x


@pytest.mark.width
@pytest.mark.parametrize("at", [0, 2**60])
def test_scrambled_left_factor_costs_n_log_n(at):
    # each image jumps far ahead of the last or turns back, so a forward walk
    # over the right factor would be quadratic
    x = _scrambled(at)
    ms, got = _fastest_ms(lambda: x * x.inverse())
    assert got == almost_identity()
    assert ms < 1000, f"{ms:.0f} ms"


@pytest.mark.width
@pytest.mark.parametrize("at", [0, 2**60])
def test_one_image_across_every_right_piece_is_one_walk(at):
    # the identity's one image meets all n + 2 pieces: every one but the last is a cut piece
    x = _scrambled(at)
    ms, got = _fastest_ms(lambda: _kernel.compose_segments(identity().pieces, x.pieces))
    assert got == list(x.pieces)
    assert ms < 1000, f"{ms:.0f} ms"


# A right factor with domain gaps 1..4 and 15..19 and a one-point piece whose
# image turns back; every offset differs, so each piece met is one output piece.
_B = [(NEG_INF, 0, 0), (5, 9, 3), (10, 14, 4), (20, 20, -50), (21, POS_INF, 5)]

# the image of one left piece, in b's domain, and the number of b pieces it meets
_PROBES = [
    ((2, 3), 0, "inside a gap"),
    ((1, 4), 0, "the whole gap"),
    ((15, 19), 0, "the whole second gap"),
    ((6, 9), 1, "ends at a right piece's end"),
    ((6, 10), 2, "ends one point past it, on the next piece"),
    ((12, 14), 1, "ends at the end before a gap"),
    ((12, 15), 1, "ends one point past it, in the gap"),
    ((3, 7), 1, "starts in a gap"),
    ((0, 5), 2, "the last point of one piece and the first of the next"),
    ((-3, 22), 5, "five right pieces"),
    ((8, 21), 4, "four right pieces across a gap"),
    ((20, 20), 1, "the one-point piece"),
    ((NEG_INF, -10), 1, "infinite first piece inside b's first"),
    ((NEG_INF, 3), 1, "infinite first piece into a gap"),
    ((NEG_INF, 11), 3, "infinite first piece across three"),
    ((28, POS_INF), 1, "infinite last piece inside b's last"),
    ((16, POS_INF), 2, "infinite last piece from a gap"),
    ((-2, POS_INF), 5, "infinite last piece across five"),
    ((NEG_INF, POS_INF), 5, "the whole line"),
]


def _paths(probe, big):
    """Left factors ending in ``probe``: after an image below it (the forward walk) and after a turn-back (bisection).

    The other pieces are single points whose domains lie 10^7 from the probe's.
    """
    ilo, ihi = probe[0] + probe[2], probe[1] + probe[2]
    far = -big + (-(10**7) if ihi == POS_INF else 10**7)

    def point(d, image):
        return (far + d, far + d, image - far - d)

    forward = [probe] if ilo == NEG_INF else [point(0, ilo - 30), probe]
    if ihi != POS_INF:
        return [forward, [point(0, ihi + 40), point(1, ihi + 30), probe]]
    if ilo != NEG_INF:
        return [forward, [point(0, ilo - 20), point(1, ilo - 30), probe]]
    return [forward]  # the whole line leaves no room for another image


@pytest.mark.parametrize("big", [0, 2**60, -(2**60)])
@pytest.mark.parametrize("image,met,what", _PROBES, ids=[w for _, _, w in _PROBES])
def test_each_right_piece_branch_on_both_paths(image, met, what, big):
    # b moved up by big with offsets -3 big; the probe maps onto b's coordinates with offset 2 big + 7
    b = [(lo + big, hi + big, o - 3 * big) for lo, hi, o in _B]
    off = 2 * big + 7
    probe = (image[0] + big - off, image[1] + big - off, off)
    alone = ref_compose_segments([probe], b)
    assert len(alone) == met
    paths = _paths(probe, big)
    assert len(paths) == (1 if image == (NEG_INF, POS_INF) else 2)
    for a in paths:
        got = _kernel.compose_segments(a, b)
        assert got == ref_compose_segments(a, b), (a, b)
        assert got[len(got) - met :] == alone


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
