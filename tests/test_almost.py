import random
import timeit

import pytest

from cofinj.core import (
    NEG_INF,
    POS_INF,
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    _unpickled,
    random_element,
    shift,
)
from cofinj.almost import (
    AlmostMonotoneElement,
    UnitDecomposition,
    almost_identity,
    canonicalize,
    compose_almost,
    from_monotone,
    inverse_almost,
    make_almost,
    minimal_exceptions,
    monotonizers,
    parse_almost,
    random_almost,
    random_unit,
    to_monotone,
    unit_decompose,
    unit_recompose,
)

from helpers import (
    assert_same_on_window,
    brute_minimal_exceptions,
    compose_maps,
    point_minimal_exceptions,
    point_monotonizers,
    ref_minimal_exceptions,
    window_bound,
    window_map,
)


SCRAMBLE = make_almost(0, 0, 6, 0, {1: 5, 2: 3, 3: 4})


# -- construction ----------------------------------------------------------------


def test_make_identity():
    assert make_almost(0, 0, 1, 0, {}) == almost_identity()
    assert make_almost(-3, 0, 4, 0, {x: x for x in range(-2, 4)}) == almost_identity()


def test_make_scramble_valid_but_not_monotone():
    assert not SCRAMBLE.is_monotone()
    want = {x: x for x in range(-8, 9)}
    for x in (1, 2, 3, 4, 5):
        want.pop(x, None)
    want.update({1: 5, 2: 3, 3: 4})
    assert_same_on_window(SCRAMBLE, want, 8)
    with pytest.raises(InvalidElementError):
        to_monotone(SCRAMBLE)


@pytest.mark.parametrize(
    "args",
    [
        (0, 0, 6, 0, {1: 5, 2: 5}),  # not injective
        (6, 0, 0, 0, {}),  # d >= u
        (0, 0, 6, 0, {1: 0}),  # value inside left tail image
        (0, 0, 6, 0, {1: 6}),  # value inside right tail image
        (0, 0, 6, 0, {7: 8}),  # point outside window
        (0, 5, 1, 0, {}),  # tail images collide
        (0, 0, 6, 0, {1: "x"}),
        (0, 0, 3, 0, [(1, 1), (1, 2)]),  # point listed twice, last pair would win
        (0, 0, 3, 0, [(1, 2), (1, 1)]),  # point listed twice, the tail would absorb it
        (0, 0, 3, 0, 5),  # middle not iterable
        (0, 0, 3, 0, [(1, 2, 3)]),  # not a pair
        (0, 0, 3, 0, [([1], 2)]),  # unhashable point
    ],
)
def test_make_rejects(args):
    with pytest.raises(InvalidElementError):
        make_almost(*args)


@pytest.mark.parametrize(
    "args",
    [
        (0, 0, 4, 0, {1: 1, 2: 3}),  # 1 -> 1 continues the left tail
        (0, 0, 4, 0, {2: 1, 3: 3}),  # 3 -> 3 continues the right tail
        (5, 2, 6, 2, {}),  # a total translation away from the window (0, 1)
        (-1, 2, 1, 2, {0: 2}),  # a total translation through its middle
    ],
)
def test_constructor_rejects_windows_that_are_not_minimal(args):
    with pytest.raises(InvalidElementError):
        AlmostMonotoneElement(*args)
    minimal = make_almost(*args)
    assert AlmostMonotoneElement(
        minimal.left_end, minimal.left_offset, minimal.right_start, minimal.right_offset, minimal.middle
    ) == minimal


def test_constructor_accepts_the_translation_window():
    t = AlmostMonotoneElement(0, 2, 1, 2, {})
    assert t == make_almost(5, 2, 6, 2, {}) and (t.left_end, t.right_start) == (0, 1)
    assert AlmostMonotoneElement(0, 0, 1, 0, {}) == almost_identity()


def test_constructor_accepts_exactly_the_minimal_windows():
    # the reference rule: neither tail extends into the window, and a total
    # translation uses the window (0, 1)
    rng = random.Random(11)
    rejected = 0
    for _ in range(3000):
        d, dl, ur = rng.randint(-3, 0), rng.randint(-1, 1), rng.randint(-1, 1)
        u = rng.randint(d + 1, 4)
        if d + dl >= u + ur:
            continue
        slots, values = range(d + 1, u), range(d + dl + 1, u + ur)
        n = rng.randint(0, min(len(slots), len(values)))
        mid = dict(zip(rng.sample(slots, n), rng.sample(values, n)))
        minimal = (
            mid.get(d + 1) != d + 1 + dl
            and mid.get(u - 1) != u - 1 + ur
            and (mid or dl != ur or u != d + 1 or (d, u) == (0, 1))
        )
        try:
            AlmostMonotoneElement(d, dl, u, ur, mid)
        except InvalidElementError:
            rejected += 1
            assert not minimal, (d, dl, u, ur, mid)
        else:
            assert minimal, (d, dl, u, ur, mid)
    assert 100 < rejected < 2500


def test_repeated_middle_point_is_rejected_like_the_parser():
    for build in (make_almost, AlmostMonotoneElement):
        with pytest.raises(InvalidElementError, match="middle point 1 listed twice"):
            build(0, 0, 3, 0, [(1, 1), (1, 2)])
        with pytest.raises(InvalidElementError):
            build(0, 0, 3, 0, 5)
    with pytest.raises(InvalidElementError, match="middle point 1 listed twice"):
        parse_almost("am[d=0,L=0,u=3,R=0; 1->1, 1->2]")
    assert make_almost(0, 0, 4, 0, [(1, 2), (2, 1)]) == make_almost(0, 0, 4, 0, {1: 2, 2: 1})


def test_window_minimization():
    e = make_almost(-4, 1, 5, 0, {-3: -2, -2: -1, 3: 3, 4: 4})
    assert (e.left_end, e.right_start) == (-2, 3)
    assert e.middle == {}


def test_translation_normal_form():
    assert make_almost(5, 2, 6, 2, {}) == make_almost(-9, 2, -8, 2, {})
    assert make_almost(5, 2, 6, 2, {}) == from_monotone(shift(2))


# -- conversions -------------------------------------------------------------------


def test_monotone_round_trip():
    rng = random.Random(1)
    for _ in range(300):
        m = random_element(rng, 3, 3)
        assert to_monotone(from_monotone(m)) == m


def test_either_class_answers_is_monotone():
    rng = random.Random(2)
    for _ in range(300):
        m = random_element(rng, 3, 3)
        # a segment element is monotone in either form, and converts to itself
        assert m.is_monotone() and from_monotone(m).is_monotone()
        assert to_monotone(m) == m
        assert minimal_exceptions(m) == frozenset()
        a = random_almost(rng)
        assert a.is_monotone() == (minimal_exceptions(a) == frozenset())


def test_canonicalize_picks_segment_form():
    assert canonicalize(from_monotone(shift(2))) == shift(2)
    assert canonicalize(SCRAMBLE) is SCRAMBLE
    # values that are not elements pass through, as the evaluator's set literals rely on
    for v in (5, True, (1, 2), frozenset({shift(1)}), None):
        assert canonicalize(v) is v


def test_equality_is_within_a_class_and_pieces_across():
    rng = random.Random(17)
    for _ in range(200):
        m = random_element(rng, 3, 3)
        a = from_monotone(m)
        assert m != a and a != m
        assert a.pieces == m.pieces
        assert hash(m) == hash(a) == hash(m.pieces)
        assert len({m, a}) == 2
        assert a == from_monotone(m) and canonicalize(a) == m
        assert m != m.pieces and a != a.pieces


def test_idempotent_agreement_across_representations():
    rng = random.Random(2)
    for _ in range(200):
        a = random_almost(rng)
        square = compose_almost(a, a)
        assert a.is_idempotent() == (square == a)
        if a.is_idempotent():
            assert to_monotone(a).is_idempotent()


# -- composition and inversion ------------------------------------------------------


def test_compose_identity():
    rng = random.Random(3)
    for _ in range(100):
        a = random_almost(rng)
        assert compose_almost(a, almost_identity()) == a
        assert compose_almost(almost_identity(), a) == a


def test_compose_agrees_with_monotone_compose():
    rng = random.Random(4)
    for _ in range(300):
        x = random_element(rng, 3, 3)
        y = random_element(rng, 3, 3)
        assert to_monotone(compose_almost(from_monotone(x), from_monotone(y))) == x * y


def test_compose_matches_pointwise_oracle():
    rng = random.Random(5)
    for _ in range(300):
        a = random_almost(rng)
        b = random_almost(rng)
        w = window_bound(a, b)
        want = compose_maps(window_map(a, 2 * w), window_map(b, 3 * w))
        got = window_map(compose_almost(a, b), w)
        assert got == {x: y for x, y in want.items() if -w <= x <= w}


def test_swap_unit_times_inverse_is_identity():
    swap = unit_recompose(UnitDecomposition(((0, 1), (1, 0)), 2))
    assert compose_almost(swap, inverse_almost(swap)) == almost_identity()


def test_inverse_laws():
    rng = random.Random(6)
    for _ in range(300):
        a = random_almost(rng)
        assert inverse_almost(inverse_almost(a)) == a
        assert compose_almost(compose_almost(a, inverse_almost(a)), a) == a
        gaps = compose_almost(a, inverse_almost(a))
        assert gaps.is_idempotent() and gaps.dom_gaps() == a.dom_gaps()


def test_associativity():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (random_almost(rng) for _ in range(3))
        assert compose_almost(compose_almost(a, b), c) == compose_almost(a, compose_almost(b, c))


# -- minimal exceptions ---------------------------------------------------------------


def test_minimal_exceptions_examples():
    assert minimal_exceptions(from_monotone(random_element(0, 3, 3))) == frozenset()
    assert minimal_exceptions(SCRAMBLE) == frozenset({1})
    reversing = make_almost(0, 0, 4, 0, {1: 3, 2: 2, 3: 1})
    assert len(minimal_exceptions(reversing)) == 2


@pytest.mark.parametrize("value", [3, None, "am[d=0,L=0,u=1,R=0;]", IdempotentGaps({0})], ids=repr)
def test_minimal_exceptions_and_monotonizers_reject_a_non_element(value):
    for f in (minimal_exceptions, monotonizers):
        with pytest.raises(InvalidElementError) as err:
            f(value)
        assert str(err.value) == f"elem must be an element, got {value!r}"


def test_minimal_exceptions_matches_brute_force():
    rng = random.Random(8)
    for _ in range(400):
        a = random_almost(rng, max_offset=2, window=4, max_middle=7)
        assert minimal_exceptions(a) == brute_minimal_exceptions(a.middle), a


def test_minimal_exceptions_matches_the_greedy_on_wide_middles():
    # up to 40 middle points, past the reach of the exhaustive search; half of
    # the middles are increasing runs with a few points swapped
    rng = random.Random(10)
    for t in range(1000):
        n = rng.randint(0, 40)
        keys = rng.sample(range(1, 100), n)
        vals = sorted(rng.sample(range(1, 100), n))
        if t % 2:
            for _ in range(rng.randint(0, 4) if n else 0):
                i, j = rng.randrange(n), rng.randrange(n)
                vals[i], vals[j] = vals[j], vals[i]
        else:
            rng.shuffle(vals)
        a = make_almost(0, 0, 100, 0, dict(zip(sorted(keys), vals)))
        assert minimal_exceptions(a) == ref_minimal_exceptions(a.middle), a


def _wide_piece_almost(rng):
    """A random almost-monotone element composed with monotone ones, so its inner pieces span several points."""
    a = random_almost(rng, max_offset=2, window=rng.randint(3, 30), max_middle=rng.randint(0, 12))
    return compose_almost(compose_almost(random_element(rng, 3, 2), a), random_element(rng, 3, 2))


def test_minimal_exceptions_matches_the_point_table():
    rng = random.Random(15)
    for _ in range(3000):
        a = _wide_piece_almost(rng)
        assert minimal_exceptions(a) == point_minimal_exceptions(a.middle), a
        assert monotonizers(a) == point_monotonizers(a), a


def test_minimal_exceptions_on_multi_point_pieces_matches_the_searches():
    rng = random.Random(16)
    seen = 0
    for _ in range(1500):
        a = _wide_piece_almost(rng)
        mid = a.middle
        seen += any(hi > lo for lo, hi, _ in a.pieces[1:-1])
        if len(mid) <= 9:
            assert minimal_exceptions(a) == brute_minimal_exceptions(mid), a
        if len(mid) <= 40:
            assert minimal_exceptions(a) == ref_minimal_exceptions(mid), a
    assert seen > 500


@pytest.mark.width
def test_minimal_exceptions_cost_does_not_grow_with_piece_width():
    swap = unit_recompose(UnitDecomposition(((-1, -2), (-2, -1)), 0))
    for w in (10**4, 10**12):
        wide = swap * MonotoneElement([(NEG_INF, 0, 0), (1, w, 1), (w + 1, POS_INF, 2)])
        assert minimal_exceptions(wide) == frozenset({-2})
        left, right, both = monotonizers(wide)
        assert left.gaps == frozenset({-2}) and right.gaps == frozenset({-1, 1, w + 2})
        best = min(timeit.repeat(lambda: minimal_exceptions(wide), number=1, repeat=5))
        assert best < 1e-3, best
    # a wide inner piece out of order with a narrow one: the narrow one goes
    pieces = ((NEG_INF, 0, 0), (1, 1, w + 1), (2, w + 1, -1), (w + 2, POS_INF, 1))
    a = _unpickled(AlmostMonotoneElement, pieces)
    assert minimal_exceptions(a) == frozenset({1})
    assert monotonizers(a)[1].gaps == frozenset({w + 1, w + 2})


def test_monotonizer_products_are_monotone():
    rng = random.Random(9)
    for _ in range(500):
        a = random_almost(rng)
        left, right, both = monotonizers(a)
        la = compose_almost(from_monotone(left.to_element()), a)
        ar = compose_almost(a, from_monotone(right.to_element()))
        eae = compose_almost(
            from_monotone(both.to_element()),
            compose_almost(a, from_monotone(both.to_element())),
        )
        assert la.is_monotone() and ar.is_monotone() and eae.is_monotone()
        assert to_monotone(la) == to_monotone(ar)


def test_monotonizers_of_monotone_element():
    m = random_element(17, 2, 2)
    left, right, both = monotonizers(m)
    assert left.gaps == m.dom_gaps()
    assert right.gaps == m.ran_gaps()
    assert both == IdempotentGaps(m.dom_gaps() | m.ran_gaps())


# -- units -------------------------------------------------------------------------


def test_unit_decompose_examples():
    assert unit_decompose(shift(2)) == UnitDecomposition((), 2)
    u = make_almost(-1, 2, 2, 2, {0: 3, 1: 2})
    assert unit_decompose(u) == UnitDecomposition(((0, 1), (1, 0)), 2)
    with pytest.raises(InvalidElementError):
        unit_decompose(IdempotentGaps({0}).to_element())


def test_unit_round_trip_and_shift_additivity():
    rng = random.Random(10)
    for _ in range(500):
        u = random_unit(rng)
        dec = unit_decompose(u)
        assert unit_recompose(dec) == u
        v = random_unit(rng)
        uv = compose_almost(u, v)
        assert unit_decompose(uv).shift == dec.shift + unit_decompose(v).shift


def test_shift_conjugation_moves_support():
    rng = random.Random(11)
    for _ in range(100):
        u = random_unit(rng)
        k = rng.randint(-4, 4)
        conj = compose_almost(compose_almost(from_monotone(shift(k)), u), from_monotone(shift(-k)))
        a = unit_decompose(u)
        b = unit_decompose(conj)
        assert b.shift == a.shift
        assert dict(b.support_perm) == {x - k: y - k for x, y in a.support_perm}


def test_unit_recompose_rejects():
    with pytest.raises(InvalidElementError):
        unit_recompose(UnitDecomposition(((0, 1),), 0))  # not a bijection
    with pytest.raises(InvalidElementError):
        unit_recompose(UnitDecomposition(((0, 0),), 0))  # listed fixed point
    for support in (((0.5, 1.5), (1.5, 0.5)), (("a", "b"), ("b", "a")), ((0, 1, 2), (1, 0, 2)), (5,)):
        with pytest.raises(InvalidElementError):
            unit_recompose(UnitDecomposition(support, 0))  # not integer pairs


# -- text --------------------------------------------------------------------------


def test_text_round_trip():
    assert SCRAMBLE.to_text() == "am[d=0,L=0,u=6,R=0; 1->5, 2->3, 3->4]"
    assert parse_almost(SCRAMBLE.to_text()) == SCRAMBLE
    rng = random.Random(12)
    for _ in range(200):
        a = random_almost(rng)
        assert parse_almost(a.to_text()) == a


def test_parse_accepts_blanks_around_every_separator():
    spaced = "am[ d = 0 , L = 0 , u = 4 , R = 0 ; 1 -> 2 , 2 -> 1 ]"
    assert parse_almost(spaced) == parse_almost("am[d=0,L=0,u=4,R=0; 1->2, 2->1]")
    assert parse_almost(spaced).to_text() == "am[d=0,L=0,u=4,R=0; 1->2, 2->1]"


def test_parse_rejects():
    for text in ["am[d=0,L=0,u=6,R=0]", "am[d=0,L=0,u=6,R=0; 1->]", "am[d=0,L=0,u=6,R=0; 1->2, 1->3]"]:
        with pytest.raises(InvalidElementError):
            parse_almost(text)
