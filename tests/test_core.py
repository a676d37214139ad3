import random
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofinj import bicyclic, core
from cofinj.almost import compose_almost, make_almost, random_almost
from cofinj.core import (
    NEG_INF,
    POS_INF,
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    collapse_element,
    covers,
    element_from_gaps,
    identity,
    idempotent_leq,
    idempotent_meet,
    normalize,
    parse_element,
    random_element,
    shift,
)

from helpers import (
    assert_pointwise,
    assert_same_on_window,
    breaks,
    compose_maps,
    image_breaks,
    preimage,
    pull_back,
    ref_seg_text,
    ref_to_text,
    window_bound,
    window_map,
)


# -- normalize -----------------------------------------------------------------


def test_normalize_merges_adjacent_equal_offset():
    assert normalize([(NEG_INF, 0, 0), (1, POS_INF, 0)]) == identity()


def test_normalize_keeps_genuine_gap():
    e = normalize([(NEG_INF, 0, 0), (2, POS_INF, 0)])
    assert e.segments == ((NEG_INF, 0, 0), (2, POS_INF, 0))


def test_normalize_range_gap_element_pointwise():
    e = normalize([(NEG_INF, 0, 0), (1, POS_INF, 1)])
    assert e.segments == ((NEG_INF, 0, 0), (1, POS_INF, 1))
    want = {x: (x if x <= 0 else x + 1) for x in range(-10, 11)}
    assert_same_on_window(e, want, 10)


def test_normalize_idempotent_and_unordered_input():
    raw = [(5, POS_INF, 2), (NEG_INF, -1, 0), (1, 3, 1)]
    e = normalize(raw)
    assert normalize(e.segments) == e


@pytest.mark.parametrize(
    "raw",
    [
        [],
        [(NEG_INF, 0, 0), (0, POS_INF, 0)],  # overlap
        [(NEG_INF, 0, 0), (-3, POS_INF, 0)],  # containment
        [(NEG_INF, 0, 2), (1, POS_INF, 0)],  # image order
        [(0, POS_INF, 0)],  # bounded left end
        [(NEG_INF, 0, 0)],  # bounded right end
        [(NEG_INF, 3, 0), (1, POS_INF, 0)],  # out of order
        [(NEG_INF, POS_INF, "x")],  # non-integer offset
        [(NEG_INF, 0.5, 0), (2, POS_INF, 0)],  # non-integer bound
        [(POS_INF, POS_INF, 0)],
        [(1,)],  # not a triple
        None,  # not an iterable
        [(NEG_INF, 0, 0, 0)],  # too long
        [5],  # a segment that is not an iterable
    ],
)
def test_normalize_rejects(raw):
    with pytest.raises(InvalidElementError):
        normalize(raw)


def test_constructor_rejects_mergeable():
    with pytest.raises(InvalidElementError):
        MonotoneElement([(NEG_INF, 0, 0), (1, POS_INF, 0)])


@pytest.mark.parametrize("raw", [[(1, 2)], 5, None, [(NEG_INF, POS_INF, 0, 1)], [5], [(NEG_INF, POS_INF)]])
def test_constructor_rejects_malformed_segments(raw):
    with pytest.raises(InvalidElementError):
        MonotoneElement(raw)


# -- apply ---------------------------------------------------------------------


def test_apply_examples():
    assert identity()(7) == 7
    gap = normalize([(NEG_INF, 0, 0), (2, POS_INF, 0)])
    assert gap(1) is None
    step = normalize([(NEG_INF, 0, 0), (1, POS_INF, 1)])
    assert step(5) == 6
    assert 1 not in gap and 5 in step


# -- compose ---------------------------------------------------------------------


def test_compose_identity_laws():
    rng = random.Random(11)
    for _ in range(50):
        a = random_element(rng, 3, 3)
        assert identity() * a == a
        assert a * identity() == a


def test_compose_shift_with_restriction():
    drop0 = IdempotentGaps({0}).to_element()
    got = shift(2) * drop0
    assert got == normalize([(NEG_INF, -3, 2), (-1, POS_INF, 2)])


def test_compose_step_generators_cancel():
    a = normalize([(NEG_INF, 0, 0), (1, POS_INF, 1)])
    b = normalize([(NEG_INF, 0, 0), (2, POS_INF, -1)])
    assert a * b == identity()
    assert b * a == IdempotentGaps({1}).to_element()


def test_compose_matches_pointwise_oracle():
    rng = random.Random(5)
    for _ in range(300):
        a = random_element(rng, 3, 3)
        b = random_element(rng, 3, 3)
        w = window_bound(a, b)
        want = compose_maps(window_map(a, 2 * w), window_map(b, 3 * w))
        got = window_map(a * b, w)
        assert got == {x: y for x, y in want.items() if -w <= x <= w}


def test_associativity():
    rng = random.Random(6)
    for _ in range(300):
        a, b, c = (random_element(rng, 2, 2) for _ in range(3))
        assert (a * b) * c == a * (b * c)


# -- inverse ---------------------------------------------------------------------


def test_inverse_examples():
    assert identity().inverse() == identity()
    assert shift(3).inverse() == shift(-3)
    a = normalize([(NEG_INF, 0, 0), (1, POS_INF, 1)])
    b = normalize([(NEG_INF, 0, 0), (2, POS_INF, -1)])
    assert a.inverse() == b
    assert ~a == b


def test_inverse_laws():
    rng = random.Random(7)
    for _ in range(300):
        a = random_element(rng, 3, 3)
        b = random_element(rng, 3, 3)
        assert a.inverse().inverse() == a
        assert a * a.inverse() * a == a
        assert (a * b).inverse() == b.inverse() * a.inverse()
        assert a * a.inverse() == IdempotentGaps(a.dom_gaps()).to_element()
        assert a.inverse() * a == IdempotentGaps(a.ran_gaps()).to_element()


# -- idempotents -------------------------------------------------------------------


def test_is_idempotent():
    assert identity().is_idempotent()
    assert not shift(1).is_idempotent()
    assert IdempotentGaps({0, 5}).to_element().is_idempotent()


def test_idempotent_iff_square():
    rng = random.Random(8)
    for _ in range(200):
        a = random_element(rng, 3, 2)
        assert a.is_idempotent() == (a * a == a)


def test_idempotent_order_examples():
    assert idempotent_leq(IdempotentGaps({0, 1}), IdempotentGaps({0}))
    e = IdempotentGaps({2})
    assert idempotent_leq(e, e)
    assert not idempotent_leq(IdempotentGaps({0}), IdempotentGaps({5}))


def test_idempotent_order_matches_products():
    rng = random.Random(9)
    for _ in range(100):
        e = IdempotentGaps(rng.sample(range(-5, 6), rng.randint(0, 3)))
        f = IdempotentGaps(rng.sample(range(-5, 6), rng.randint(0, 3)))
        ee, fe = e.to_element(), f.to_element()
        assert idempotent_leq(e, f) == (ee * fe == ee and fe * ee == ee)


@pytest.mark.parametrize("value", [3, None, frozenset({0}), IdempotentGaps({0}).to_element()], ids=repr)
def test_idempotent_methods_reject_a_non_idempotent(value):
    """``<=`` leaves the comparison to Python, as ``*`` does; leq, meet and covers name their argument."""
    e = IdempotentGaps({1})
    with pytest.raises(TypeError):
        e <= value
    with pytest.raises(TypeError):
        e * value
    for method in (e.leq, e.meet, e.covers):
        with pytest.raises(InvalidElementError) as err:
            method(value)
        assert str(err.value) == f"other must be an IdempotentGaps, got {value!r}"
    assert (e <= IdempotentGaps()) is True and (IdempotentGaps() <= e) is False


@pytest.mark.parametrize("value", [3, None, "E{0}", IdempotentGaps({0})], ids=repr)
def test_from_element_rejects_a_non_element(value):
    with pytest.raises(InvalidElementError) as err:
        IdempotentGaps.from_element(value)
    assert str(err.value) == f"elem must be an element, got {value!r}"


def test_meet_examples():
    assert idempotent_meet(IdempotentGaps({0}), IdempotentGaps({5})) == IdempotentGaps({0, 5})
    e = IdempotentGaps({1, 2})
    assert e.meet(e) == e
    assert IdempotentGaps() * IdempotentGaps({3}) == IdempotentGaps({3})


def test_semilattice_isomorphism():
    rng = random.Random(10)
    seen = {}
    for _ in range(200):
        e = IdempotentGaps(rng.sample(range(-6, 7), rng.randint(0, 4)))
        f = IdempotentGaps(rng.sample(range(-6, 7), rng.randint(0, 4)))
        prod = e.to_element() * f.to_element()
        assert prod.is_idempotent()
        assert prod.dom_gaps() == e.gaps | f.gaps
        seen.setdefault(e.gaps, e.to_element())
    vals = list(seen.values())
    assert len(set(vals)) == len(vals)  # gap set determines the idempotent


def test_covers_examples():
    assert covers(IdempotentGaps({0}), IdempotentGaps({0, 4}))
    assert not covers(IdempotentGaps(), IdempotentGaps({1, 2}))
    e = IdempotentGaps({3})
    assert not covers(e, e)


def test_covers_matches_brute_force():
    # no idempotent strictly between e and f iff f = e plus one gap
    pool = range(-2, 3)
    import itertools

    sets = [frozenset(s) for n in range(3) for s in itertools.combinations(pool, n)]
    for ga in sets:
        for gb in sets:
            e, f = IdempotentGaps(ga), IdempotentGaps(gb)
            strictly_between = [
                g
                for g in sets
                if ga < g < gb  # strict gap-set containment both sides
            ]
            expected = ga < gb and not strictly_between
            assert covers(e, f) == expected, (ga, gb)


# -- gaps, offsets, balance ------------------------------------------------------


def test_gap_and_offset_examples():
    i = identity()
    assert i.dom_gaps() == frozenset() and i.ran_gaps() == frozenset()
    assert (i.left_offset, i.right_offset) == (0, 0)
    a = normalize([(NEG_INF, 0, 0), (1, POS_INF, 1)])
    assert a.dom_gaps() == frozenset()
    assert a.ran_gaps() == frozenset({1})
    assert (a.left_offset, a.right_offset) == (0, 1)
    d = IdempotentGaps({0}).to_element()
    assert d.dom_gaps() == d.ran_gaps() == frozenset({0})
    assert (d.left_offset, d.right_offset) == (0, 0)


def test_offset_gap_balance():
    rng = random.Random(12)
    for _ in range(500):
        a = random_element(rng, 4, 4)
        assert a.right_offset - a.left_offset == len(a.ran_gaps()) - len(a.dom_gaps())


def test_canonical_uniqueness_via_reconstruction():
    rng = random.Random(13)
    for _ in range(300):
        a = random_element(rng, 4, 4)
        assert element_from_gaps(a.dom_gaps(), a.ran_gaps(), a.left_offset) == a


def test_collapse_element():
    c = collapse_element({0})
    assert c.segments == ((NEG_INF, -1, 0), (1, POS_INF, -1))
    c2 = collapse_element({0, 1})
    assert c2(2) == 0 and c2(-1) == -1 and c2(0) is None
    assert collapse_element(()) == identity()
    for gaps in (["a", 1], [1.5], [True]):
        with pytest.raises(InvalidElementError):
            collapse_element(gaps)


def test_element_from_gaps_rejects_non_integer_offset():
    for k in (True, 1.5, 0.0):
        with pytest.raises(InvalidElementError):
            element_from_gaps((), (), k)


# -- results built without re-validation, against pointwise oracles -------------------
#
# Products, inverses, collapses, element_from_gaps, IdempotentGaps.to_element,
# the bicyclic generators and normalize skip the canonical-form check on their
# results.  Each result here must pass that check and agree with an oracle on
# all of Z (see helpers.assert_pointwise), across small, long (more segments
# than the compiled kernel takes) and 2^60-wide elements.

WIDE = 2**60


def _gaps_corpus():
    """(dom_gaps, ran_gaps, left_offset) triples: small, long and wide."""
    rng = random.Random(21)
    out = []
    for _ in range(30):
        d = rng.sample(range(-8, 9), rng.randint(0, 3))
        r = rng.sample(range(-8, 9), rng.randint(0, 3))
        out.append((d, r, rng.randint(-3, 3)))
    for _ in range(4):
        d = rng.sample(range(-300, 301, 4), 36)
        r = rng.sample(range(-300, 301, 4), 36)
        out.append((d, r, rng.randint(-3, 3)))
    for _ in range(6):
        d = [WIDE + g for g in rng.sample(range(-8, 9), rng.randint(0, 3))]
        r = [WIDE + g for g in rng.sample(range(-8, 9), rng.randint(1, 3))]
        out.append((d, r, rng.randint(-3, 3)))
        out.append((rng.sample(range(-8, 9), 2), [], rng.choice([-1, 1]) * WIDE + rng.randint(-3, 3)))
    return out


def _collapse_ref(gaps):
    return lambda x: None if x in gaps else x - sum(g < x for g in gaps)


def _from_gaps_ref(d, r, k):
    """x -> the (rank of x outside d, plus k)-th point outside r, both counted from the left tail."""
    rs = sorted(r)

    def ref(x):
        if x in d:
            return None
        z = x - sum(g < x for g in d) + k
        for g in rs:
            if g <= z:
                z += 1
        return z

    # the rank map is a translation between points of d; the walk over r
    # jumps where z first reaches each gap
    jumps = {g + 1 - sum(h <= g for h in r) for g in r}
    ref_breaks = set(d) | {g + 1 for g in d} | {y - k + j for y in jumps for j in range(len(d) + 1)}
    return ref, ref_breaks


def _gen_ref(n, orientation, letter):
    if orientation == "+":
        if letter == "p":
            return lambda x: x if x <= n else x + 1
        return lambda x: x if x <= n else (None if x == n + 1 else x - 1)
    if letter == "p":
        return lambda x: x if x >= n else x - 1
    return lambda x: x if x >= n else (None if x == n - 1 else x + 1)


def _check_trusted(x, ref, ref_breaks):
    core._check_canonical(x.segments)
    assert_pointwise(x, ref, ref_breaks)


def _split_and_shuffle(elem, rng):
    """The same map as a shuffled list of segments, some of them cut in two."""
    raw = []
    for lo, hi, o in elem.segments:
        cut = hi - 1 if lo == NEG_INF else lo + rng.randint(0, 2)
        if lo <= cut < hi and rng.random() < 0.6:
            raw += [(lo, cut, o), (cut + 1, hi, o)]
        else:
            raw.append((lo, hi, o))
    rng.shuffle(raw)
    return raw


def test_trusted_results_match_pointwise_oracles():
    rng = random.Random(22)
    corpus = []
    for d, r, k in _gaps_corpus():
        e = element_from_gaps(d, r, k)
        _check_trusted(e, *_from_gaps_ref(set(d), set(r), k))
        for gaps in (d, r):
            _check_trusted(collapse_element(gaps), _collapse_ref(set(gaps)), {b for g in gaps for b in (g, g + 1)})
            _check_trusted(
                IdempotentGaps(gaps).to_element(),
                lambda x, gs=set(gaps): None if x in gs else x,
                {b for g in gaps for b in (g, g + 1)},
            )
        _check_trusted(e.inverse(), lambda y, e=e: preimage(e, y), image_breaks(e))
        got = normalize(_split_and_shuffle(e, rng))
        assert got == e
        _check_trusted(got, e, breaks(e))
        corpus.append(e)
    assert max(len(e.segments) for e in corpus) >= 70
    pairs = [(a, b) for a in corpus for b in corpus if len(a.segments) + len(b.segments) > 60 or rng.random() < 0.1]
    for a, b in pairs:
        ref = lambda x, a=a, b=b: None if a(x) is None else b(a(x))
        _check_trusted(a * b, ref, breaks(a) | pull_back(a, breaks(b)))
    for n in (-3, 0, 5, WIDE, -WIDE):
        for orientation in bicyclic.ORIENTATIONS:
            for letter in bicyclic.LETTERS:
                g = bicyclic.gen(n, orientation, letter)
                _check_trusted(g, _gen_ref(n, orientation, letter), range(n - 1, n + 3))


# -- random_element -----------------------------------------------------------------


def test_random_element_trivial_class():
    assert random_element(0, 0, 0) == identity()


def test_random_element_deterministic_and_valid():
    for seed in range(40):
        a = random_element(seed, 3, 3)
        assert a == random_element(seed, 3, 3)
        assert len(a.dom_gaps()) <= 3 and len(a.ran_gaps()) <= 3
        assert abs(a.left_offset) <= 3 and abs(a.right_offset) <= 3


def test_random_element_rejects_bad_bounds():
    with pytest.raises(ValueError):
        random_element(0, -1, 0)


# -- text ---------------------------------------------------------------------------


def test_text_round_trip_examples():
    # canonical spellings reproduce exactly
    for text in [
        "id",
        "shift(-4)",
        "E{0,5}",
        "seg[(-inf..0,+0),(2..+inf,+1)]",
        "seg[(-inf..-1,+0),(1..5,-1),(6..+inf,+0)]",
    ]:
        assert parse_element(text).to_text() == text
    # accepted aliases still parse to the same map
    assert parse_element("E{}") == identity()
    assert parse_element("seg[(-inf..+inf,+3)]") == shift(3)
    for text in ["E{0,5}", "seg[(-inf..0,+0),(2..+inf,+1)]"]:
        e = parse_element(text)
        assert parse_element(e.to_text()) == e
        assert parse_element(e.to_seg_text()) == e


class _Bound(IntEnum):
    LO = -7
    HI = -3
    OFF = 2


def test_text_writers_match_the_f_string_reference():
    rng = random.Random(12)
    big = 2**60
    elems = [identity(), shift(-5), shift(big), IdempotentGaps({-3, 0, 4}).to_element()]
    elems += [random_element(rng, rng.randint(0, 6), 3) for _ in range(300)]
    elems += [shift(big) * e * shift(-big - 1) for e in elems[4:40]]
    elems += [MonotoneElement([(NEG_INF, _Bound.LO, _Bound.OFF), (_Bound.HI, 5, -1), (9, POS_INF, _Bound.OFF)])]
    elems += [MonotoneElement([(NEG_INF, POS_INF, _Bound.OFF)]), MonotoneElement([(NEG_INF, _Bound.HI, 0), (0, POS_INF, 0)])]
    wide = [random_almost(rng, window=rng.randint(3, 20), max_middle=10) for _ in range(200)]
    elems += wide + [compose_almost(compose_almost(m, a), m.inverse()) for a, m in zip(wide, elems[4:])]
    elems += [make_almost(_Bound.LO, 0, _Bound.HI, _Bound.OFF, {-6: -4, _Bound.OFF - 7: -6})]
    elems += [shift(big) * a for a in wide[:30]]
    for e in elems:
        assert e.to_text() == ref_to_text(e), e.pieces
        if isinstance(e, MonotoneElement):
            assert e.to_seg_text() == ref_seg_text(e), e.pieces
    assert any(isinstance(v, IntEnum) for e in elems for p in e.pieces for v in p)
    assert sum(len(e.pieces) > 3 for e in elems) > 100


def test_spec_aliases_match_their_methods():
    rng = random.Random(23)
    for _ in range(100):
        m, n = random_element(rng, 2, 2), random_element(rng, 2, 2)
        # the aliases take an element of either class
        for a, b in ((m, n), (random_almost(rng), m), (m, random_almost(rng))):
            assert core.compose(a, b) == a * b
            assert core.inverse(a) == a.inverse()
            assert all(core.apply(a, x) == a(x) for x in range(-8, 9))
            assert core.is_idempotent(a) is a.is_idempotent()
            assert core.dom_gaps(a) == a.dom_gaps() and core.ran_gaps(a) == a.ran_gaps()
            assert (core.left_offset(a), core.right_offset(a)) == (a.left_offset, a.right_offset)
    e = IdempotentGaps({0, 3}).to_element()
    assert core.is_idempotent(e) and core.dom_gaps(e) == core.ran_gaps(e) == {0, 3}


def test_idempotent_gaps_take_only_idempotents_and_stay_fixed():
    with pytest.raises(InvalidElementError, match="element is not an idempotent"):
        IdempotentGaps.from_element(shift(1))
    g = IdempotentGaps({0, 3})
    for name in ("runs", "gaps"):
        with pytest.raises(AttributeError, match="IdempotentGaps is immutable"):
            setattr(g, name, ())
    assert g.runs == ((0, 0), (3, 3))


def test_parse_rejects_garbage():
    for text in ["seg[]", "seg[(1..2,+0)]", "seg[(-inf..0,+0)(1..+inf,+0)]", "shift()", "E{1,}"]:
        with pytest.raises(InvalidElementError):
            parse_element(text)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**40), st.integers(0, 4), st.integers(0, 4))
def test_text_round_trip_random(seed, gaps, off):
    e = random_element(seed, gaps, off)
    assert parse_element(e.to_text()) == e
    assert parse_element(e.to_seg_text()) == e


def test_exactness_with_huge_offsets():
    big = 10**40
    a = shift(big)
    b = shift(-big + 7)
    assert a * b == shift(7)
    e = element_from_gaps([0], [big], big)
    assert e * e.inverse() == IdempotentGaps({0}).to_element()
