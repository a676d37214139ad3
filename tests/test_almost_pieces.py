"""Almost-monotone arithmetic on translation pieces against the window-walk references.

compose_almost, from_monotone, to_monotone, canonicalize, inverse_almost and
the solver's graft of extra points build their results from maximal translation
pieces and wrap them without a second check.  Each result here must equal,
structurally, the point-by-point version kept in helpers, and must pass the
validating public constructor unchanged.  The corpus has narrow and
+-50-window elements, 70-segment monotone elements, total translations, dense
identity-run middles and 2^60 offsets.
"""

import random

import pytest

from cofinj import almost as am
from cofinj.almost import (
    AlmostMonotoneElement,
    almost_identity,
    canonicalize,
    compose_almost,
    from_monotone,
    inverse_almost,
    make_almost,
    to_monotone,
)
from cofinj.core import (
    NEG_INF,
    POS_INF,
    InvalidElementError,
    MonotoneElement,
    Segment,
    _graft,
    element_from_gaps,
    identity,
    parse_element,
    random_element,
    shift,
)
from helpers import (
    _fastest_ms,
    _wide_domain,
    ref_compose_almost,
    ref_extend_almost,
    ref_from_monotone,
    ref_inverse_almost,
    ref_to_monotone,
)

WIDE = 2**60


def _am_wide(rng, n, max_offset=3):
    """An element on a window of about +-50 with n middle points."""
    dl, ur = rng.randint(-max_offset, max_offset), rng.randint(-max_offset, max_offset)
    d, u = -50 + rng.randint(0, 3), 50 - rng.randint(0, 3)
    keys = rng.sample(range(d + 1, u), n)
    vals = rng.sample(range(d + dl + 1, u + ur), n)
    return make_almost(d, dl, u, ur, dict(zip(keys, vals)))


def _identity_runs(rng):
    """A bijection of Z minus a few gaps moving a few points, as the H-sampler builds them."""
    gaps = set(rng.sample(range(-12, 13), rng.randint(0, 4)))
    pts = sorted(x for x in range(-12, 13) if x not in gaps)
    chosen = rng.sample(pts, rng.randint(0, 4))
    img = chosen[:]
    rng.shuffle(img)
    moved = dict(zip(chosen, img))
    every = set(moved) | gaps
    if not every:
        return almost_identity()
    d, u = min(every) - 1, max(every) + 1
    return make_almost(d, 0, u, 0, {x: moved.get(x, x) for x in range(d + 1, u) if x not in gaps})


def _wide(e):
    """The same map followed by a 2^60 translation."""
    if isinstance(e, MonotoneElement):
        return e * shift(WIDE)
    return make_almost(
        e.left_end, e.left_offset + WIDE, e.right_start, e.right_offset + WIDE,
        {k: v + WIDE for k, v in e.middle.items()},
    )


def _is_translation(e):
    return len(e.pieces) == 1


def _corpus(rng):
    mono = [identity(), shift(3), shift(-2)] + [random_element(rng, 3, 3) for _ in range(16)]
    for _ in range(2):
        d = rng.sample(range(-300, 301, 4), 40)
        r = rng.sample(range(-300, 301, 4), 40)
        mono.append(element_from_gaps(d, r, rng.randint(-3, 3)))
    assert max(len(e.segments) for e in mono) >= 70
    almost = [am.random_almost(rng, 2, 5, 6) for _ in range(16)]
    almost += [_am_wide(rng, n) for n in (5, 10, 15, 20)]
    almost += [am.random_unit(rng) for _ in range(4)]
    almost += [_identity_runs(rng) for _ in range(8)]
    almost += [from_monotone(shift(k)) for k in (-3, 0, 4)]
    almost += [from_monotone(e) for e in mono[3:8]]
    return mono, almost


def _pairs(rng):
    mono, almost = _corpus(rng)
    every = mono + almost
    pairs = [(a, rng.choice(every)) for a in almost for _ in range(3)]
    pairs += [(rng.choice(mono), b) for b in almost for _ in range(2)]
    pairs += [(a, rng.choice(mono)) for a in almost for _ in range(2)]
    pairs += [(a, rng.choice(mono)) for a in mono]
    pairs += [(a, from_monotone(a.inverse()) if isinstance(a, MonotoneElement) else inverse_almost(a)) for a in every]
    # a's images and b's domain move out by 2^60; the window walk of the reference
    # stays narrow unless b is a total translation, whose window sits at 0
    pairs += [(_wide(a), _wide_domain(b)) for a, b in pairs[::5] if not _is_translation(b)]
    return every, pairs


def _assert_trusted_almost(got):
    assert type(got) is AlmostMonotoneElement
    rebuilt = AlmostMonotoneElement(got.left_end, got.left_offset, got.right_start, got.right_offset, got.middle)
    assert rebuilt == got and rebuilt.pieces == got.pieces


def _assert_same_almost(got, want):
    _assert_trusted_almost(got)
    assert got.pieces == want.pieces, (got, want)


def _piece_value(pieces, x):
    for lo, hi, off in pieces:
        if lo <= x <= hi:
            return x + off
    return None


def test_pieces_are_maximal_and_expand_to_the_map():
    rng = random.Random(41)
    every, _ = _pairs(rng)
    every += [_wide(e) for e in every[::3]] + [_wide_domain(e) for e in every[1::3]]
    for e in every:
        ps = e.pieces
        assert ps[0][0] == NEG_INF and ps[-1][1] == POS_INF
        for (lo1, hi1, o1), (lo2, hi2, o2) in zip(ps, ps[1:]):
            assert lo1 <= hi1 < lo2 <= hi2
            assert not (hi1 + 1 == lo2 and o1 == o2), (e, ps)
        finite = [b for lo, hi, _ in ps for b in (lo, hi) if b not in (NEG_INF, POS_INF)]
        lo, hi = (min(finite), max(finite)) if finite else (0, 0)
        for x in range(lo - 3, hi + 4):
            assert _piece_value(ps, x) == e(x), (e, x)


def test_compose_and_inverse_match_window_walk():
    rng = random.Random(42)
    _, pairs = _pairs(rng)
    kinds = set()
    for a, b in pairs:
        got = compose_almost(a, b)
        _assert_same_almost(got, ref_compose_almost(a, b))
        kinds.add((type(a).__name__, type(b).__name__, len(got.middle) > 0))
    assert len(kinds) == 8
    for a, _ in pairs:
        _assert_same_almost(inverse_almost(a), ref_inverse_almost(a))


def test_conversions_match_window_walk():
    rng = random.Random(43)
    every, _ = _pairs(rng)
    mono = [e for e in every if isinstance(e, MonotoneElement)]
    mono += [_wide(e) for e in mono] + [_wide_domain(e) for e in mono]
    for m in mono:
        got = from_monotone(m)
        _assert_same_almost(got, ref_from_monotone(m))
        back = to_monotone(got)
        assert all(type(s) is Segment for s in back.segments)
        assert MonotoneElement(back.segments) == back
        assert back.segments == ref_to_monotone(got).segments == m.segments
    almost = [e for e in every if isinstance(e, AlmostMonotoneElement)]
    for e in almost + [_wide(e) for e in almost]:
        if e.is_monotone():
            assert to_monotone(e).segments == ref_to_monotone(e).segments
            assert canonicalize(e).segments == ref_to_monotone(e).segments
        else:
            with pytest.raises(InvalidElementError):
                to_monotone(e)
            with pytest.raises(InvalidElementError):
                ref_to_monotone(e)
            assert canonicalize(e) is e


def _extras(base, rng):
    """Extra point assignments outside dom(base), injective into the complement of ran(base)."""
    free = sorted(base.dom_gaps())
    values = sorted(base.ran_gaps())
    n = rng.randint(0, min(len(free), len(values), 4))
    out = dict(zip(rng.sample(free, n), rng.sample(values, n)))
    # a point that continues the left tail, which the tail must absorb
    x, v = base.left_end + 1, base.left_end + 1 + base.left_offset
    if rng.random() < 0.3 and x in free and v in values and x not in out and v not in out.values():
        out[x] = v
    return out


def test_extend_almost_matches_window_walk():
    rng = random.Random(44)
    every, _ = _pairs(rng)
    bases = [am.as_almost(e) for e in every]
    bases += [_wide(e) for e in bases[::2]]
    grown = 0
    for base in bases:
        for _ in range(4):
            extra = _extras(base, rng)
            # the almost-monotone solver wraps each grafted candidate this way
            got = AlmostMonotoneElement._trusted(_graft(base.pieces, extra.items()))
            _assert_same_almost(got, ref_extend_almost(base, extra))
            grown += got.left_end > base.left_end
    assert grown > 0


def test_make_almost_rejects_non_integer_tails():
    with pytest.raises(InvalidElementError, match="tail data must be integers"):
        make_almost(0.5, 0, 1, 0, {})
    with pytest.raises(InvalidElementError, match="tail data must be integers"):
        make_almost(True, 0, 1, 0, {})
    with pytest.raises(InvalidElementError, match="tail data must be integers"):
        AlmostMonotoneElement(0, 0, 1.0, 0, {})


# -- cost that does not grow with the offsets or the window width ---------------------------

BIG = "seg[(-inf..0,+0),(1..+inf,+1000000000000)]"


@pytest.mark.width
def test_piece_arithmetic_ignores_offsets_and_window_width():
    """Each call takes under 10 ms, fastest of three; the window walk never finishes on these."""
    big = 10**12
    e = from_monotone(parse_element(BIG))
    cases = [
        (lambda: compose_almost(from_monotone(shift(WIDE)), from_monotone(shift(-WIDE))), almost_identity()),
        (lambda: from_monotone(parse_element(BIG)), make_almost(0, 0, 1, big, {})),
        (lambda: compose_almost(e, inverse_almost(e)), almost_identity()),
        (lambda: compose_almost(inverse_almost(e), e), make_almost(0, 0, big + 1, 0, {})),
    ]
    for fn, want in cases:
        ms, got = _fastest_ms(fn)
        assert got == want
        assert ms < 10, f"{ms:.1f} ms"


@pytest.mark.width
def test_units_cost_what_their_support_costs():
    """unit_recompose grafts the support onto the shift's pieces: under 10 ms at any span or shift."""
    big = 10**12
    cases = [
        (((0, big), (big, 0)), 0,
         ((NEG_INF, -1, 0), (0, 0, big), (1, big - 1, 0), (big, big, -big), (big + 1, POS_INF, 0))),
        (((-1, 1), (1, -1)), WIDE,
         ((NEG_INF, -2, WIDE), (-1, -1, WIDE + 2), (0, 0, WIDE), (1, 1, WIDE - 2), (2, POS_INF, WIDE))),
        (((-big, WIDE), (WIDE, -big)), -WIDE,
         ((NEG_INF, -big - 1, -WIDE), (-big, -big, big), (-big + 1, WIDE - 1, -WIDE),
          (WIDE, WIDE, -big - 2 * WIDE), (WIDE + 1, POS_INF, -WIDE))),
        ((), WIDE, ((NEG_INF, POS_INF, WIDE),)),
    ]
    for support, k, pieces in cases:
        dec = am.UnitDecomposition(support, k)
        ms, got = _fastest_ms(lambda: am.unit_recompose(dec))
        assert ms < 10, f"{ms:.1f} ms"
        assert got.pieces == pieces
        assert am.unit_decompose(got) == dec


def test_units_pass_the_validating_constructor_unchanged():
    rng = random.Random(46)
    units = [am.random_unit(rng, 3, 6, 8) for _ in range(80)]
    # moved points that share an offset merge into one piece
    rotation = am.unit_recompose(am.UnitDecomposition(((0, 1), (1, 2), (2, 3), (3, 0)), 2))
    assert rotation.pieces == ((NEG_INF, -1, 2), (0, 2, 3), (3, 3, -1), (4, POS_INF, 2))
    for u in units + [rotation, almost_identity()]:
        _assert_trusted_almost(u)
        assert AlmostMonotoneElement(u.left_end, u.left_offset, u.right_start, u.right_offset, u.middle).pieces == u.pieces
        assert am.unit_recompose(am.unit_decompose(u)) == u
