"""Algebraic laws of both monoids, on hypothesis-drawn elements of any width.

Monotone elements are drawn as canonical segment lists whose gaps reach
10^12 points and whose offsets reach 2^60; idempotents the same way with
every offset 0; units as finite permutations, moving points next to 0, 10^12
and 2^60, followed by a shift; almost-monotone elements as unit * monotone *
unit, with the units' supports drawn among the monotone factor's breaks so
that the inner permutations cut across its pieces.  Every product is also
compared with the composite of its factors on all of Z
(``helpers.assert_pointwise``).  The solver and text laws run on narrow
elements only: a solve lists every solution, and ``E{...}`` and ``am[...]``
text list every gap and middle point.

Runs are derandomized and keep no example database, so the suite is
deterministic.  A failing law prints its arguments; an element whose window
holds more than 64 points prints as its piece tuple (``core._PieceMap.__repr__``),
since its canonical text would list every point.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from cofinj import almost as am
from cofinj.congruence import mgc_signature
from cofinj.core import NEG_INF, POS_INF, MonotoneElement, parse_element
from cofinj.exprlang import Call, Evaluator, Lit, format_value
from cofinj.green import l_equiv, r_equiv, solve_left, solve_right

from helpers import assert_pointwise, breaks, image_breaks, pull_back

WIDE = 2**60
BIG = 10**12

LAWS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

OFFSETS = st.one_of(st.integers(-3, 3), st.sampled_from([WIDE, -WIDE, WIDE + 1]), st.integers(-WIDE, WIDE))
WIDTHS = st.one_of(st.integers(0, 3), st.just(BIG), st.integers(0, BIG))
LENGTHS = st.one_of(st.integers(1, 3), st.just(BIG), st.integers(1, BIG))
NARROW = dict(offsets=st.integers(-2, 2), widths=st.integers(0, 2), lengths=st.integers(1, 2), ends=st.integers(-3, 3))


@st.composite
def monotone(draw, offsets=OFFSETS, widths=WIDTHS, lengths=LENGTHS, ends=None, idempotent=False, max_breaks=3):
    """A canonical element: between pieces a domain gap and a range gap, not both empty."""
    end = draw(ends if ends is not None else st.one_of(st.integers(-4, 4), offsets))
    offset = 0 if idempotent else draw(offsets)
    segs, start = [], NEG_INF
    for _ in range(draw(st.integers(0, max_breaks))):
        g = draw(widths)
        r = g if idempotent else draw(widths)
        if g == r == 0:
            g = r = 1
        segs.append((start, end, offset))
        start, offset = end + 1 + g, offset + r - g
        end = start + draw(lengths) - 1
    segs.append((start, POS_INF, offset))
    return MonotoneElement(segs)


FAR = (BIG - 1, BIG, WIDE, WIDE + 1)


@st.composite
def unit(draw, near=(), shifts=OFFSETS, far=FAR):
    """A finite permutation followed by a shift; its support lies in ``near``, -3..3 and ``far``."""
    spots = sorted({*near, *range(-3, 4), *far})
    pts = draw(st.lists(st.sampled_from(spots), unique=True, max_size=4))
    img = draw(st.permutations(pts))
    support = tuple(sorted((x, y) for x, y in zip(pts, img) if x != y))
    return am.unit_recompose(am.UnitDecomposition(support, draw(shifts)))


@st.composite
def almost(draw, narrow=False, **kw):
    """unit * monotone * unit, the units moving points at and next to the monotone factor's breaks."""
    m = draw(monotone(**kw))
    far, shifts = ((), st.integers(-2, 2)) if narrow else (FAR, OFFSETS)
    u = draw(unit({b + d for b in breaks(m) for d in (-1, 0)}, shifts, far))
    v = draw(unit({b + d for b in image_breaks(m) for d in (-1, 0)}, shifts, far))
    return u * m * v


ELEMENTS = st.one_of(monotone(), almost())
IDEMPOTENTS = st.one_of(monotone(idempotent=True), monotone().map(lambda m: m * m.inverse()))


def _product(a, b):
    """a * b, checked against the composite of a and b on all of Z."""
    p = a * b
    assert isinstance(p, MonotoneElement) == (isinstance(a, MonotoneElement) and isinstance(b, MonotoneElement))
    assert_pointwise(p, lambda x: None if a(x) is None else b(a(x)), breaks(a) | pull_back(a, breaks(b)))
    return p


def _same(x, y):
    """Equal as maps, whichever class holds each."""
    return am.canonicalize(x) == am.canonicalize(y)


@LAWS
@given(st.tuples(monotone(), monotone(), monotone()), st.tuples(almost(), almost(), almost()))
def test_associativity_in_all_eight_orders(mono, alm):
    for kinds in itertools.product((0, 1), repeat=3):
        a, b, c = ((mono, alm)[k][i] for i, k in enumerate(kinds))
        assert _product(_product(a, b), c) == _product(a, _product(b, c)), kinds


@LAWS
@given(ELEMENTS)
def test_inverse_laws(a):
    ainv = a.inverse()
    assert _product(_product(a, ainv), a) == a
    assert _product(_product(ainv, a), ainv) == ainv
    assert ainv.inverse() == a
    assert _product(a, ainv).is_idempotent() and _product(ainv, a).is_idempotent()


def _leq(e, f):
    """The '<=' of the expression language on two idempotents."""
    return Evaluator().eval(Call("<=", [Lit(e), Lit(f)]))


@LAWS
@given(IDEMPOTENTS, IDEMPOTENTS)
def test_idempotents_commute_and_order_by_product(e, f):
    ef = _product(e, f)
    assert ef == _product(f, e)
    assert ef.is_idempotent()
    for x, y in ((e, f), (f, e), (ef, e), (ef, f), (e, ef), (e, e)):
        assert _leq(x, y) == (_product(x, y) == x), (x, y)
    assert _leq(ef, e) and _leq(ef, f)
    ae, af = am.from_monotone(e), am.from_monotone(f)
    assert _product(ae, af) == am.from_monotone(ef) == _product(af, ae)


@LAWS
@given(ELEMENTS, ELEMENTS)
def test_signature_is_a_homomorphism(a, b):
    assert mgc_signature(_product(a, b)) == mgc_signature(a) + mgc_signature(b)


@LAWS
@given(ELEMENTS, ELEMENTS, st.one_of(unit(), st.builds(lambda k: MonotoneElement([(NEG_INF, POS_INF, k)]), OFFSETS)))
def test_green_relations_are_the_idempotent_equalities(a, c, u):
    """~R and ~L against a a^-1 == b b^-1 and a^-1 a == b^-1 b, on random, R-related and L-related b."""
    for b in (c, _product(a, u), _product(u, a)):
        assert r_equiv(a, b) == _same(_product(a, a.inverse()), _product(b, b.inverse()))
        assert l_equiv(a, b) == _same(_product(a.inverse(), a), _product(b.inverse(), b))
    assert r_equiv(a, _product(a, u)) and l_equiv(a, _product(u, a))


SMALL_MONOTONE = monotone(**NARROW, max_breaks=2)
SMALL_ALMOST = almost(narrow=True, **NARROW, max_breaks=2)


@LAWS
@given(st.data())
def test_solutions_satisfy_their_equation_and_include_a_known_one(data):
    """Every solution of a*x == b and x*a == b satisfies it, and the x that made b is among them."""
    for kind in (SMALL_MONOTONE, SMALL_ALMOST):
        a, x0 = data.draw(kind), data.draw(kind)
        right, left = solve_right(a, _product(a, x0)), solve_left(a, _product(x0, a))
        assert any(_same(x, x0) for x in right) and any(_same(x, x0) for x in left)
        assert all(_same(_product(a, x), _product(a, x0)) for x in right)
        assert all(_same(_product(x, a), _product(x0, a)) for x in left)


@LAWS
@given(st.one_of(SMALL_MONOTONE, SMALL_ALMOST, monotone(**NARROW, idempotent=True)))
def test_text_parses_back(a):
    if isinstance(a, MonotoneElement):
        assert parse_element(a.to_text()) == a
        assert parse_element(a.to_seg_text()) == a
    else:
        assert am.parse_almost(a.to_text()) == a
    assert _same(Evaluator().run(format_value(a)), a)
