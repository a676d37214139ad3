"""How elements store their pieces, how they copy and pickle, and where they can be evaluated.

Both element classes keep one tuple of plain ``(lo, hi, offset)`` tuples,
``pieces``, whichever builder made them; ``MonotoneElement.segments`` builds
``Segment`` namedtuples from it on each read.  A map stored as Segments is
equal to, and hashes like, the same map stored as plain tuples.  Copies and
pickles carry the piece tuple, checked when it is read back, so they do not
grow with the widths of the pieces.
"""

import copy
import pickle
import random
from itertools import starmap

import pytest

from cofinj import almost as am
from cofinj import bicyclic, core
from cofinj.congruence import unit_to_shift
from cofinj.core import (
    NEG_INF,
    POS_INF,
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    Segment,
    collapse_element,
    element_from_gaps,
    identity,
    normalize,
    parse_element,
    random_element,
    shift,
)
from cofinj.green import solve_left, solve_right
from cofinj.topology import BasicNeighborhood, sample_member

from helpers import _fastest_ms, _Forged, assert_pointwise, breaks, pull_back

BIG = 2**60


def _monotone_corpus():
    rng = random.Random(51)
    out = [random_element(rng, 3, 3) for _ in range(12)]
    out += [shift(BIG), element_from_gaps({-BIG, 0, 1}, {BIG}, -BIG), identity()]
    return out


def _almost_corpus():
    rng = random.Random(52)
    out = [am.random_almost(rng, max_offset=3, window=6, max_middle=5) for _ in range(12)]
    out += [am.from_monotone(shift(-BIG)), am.unit_recompose(am.UnitDecomposition(((0, BIG), (BIG, 0)), 3))]
    return out


def _products(pairs):
    """a * b for each pair, after checking it pointwise against a then b."""
    out = []
    for a, b in pairs:
        got = a * b
        assert_pointwise(got, lambda x, a=a, b=b: None if a(x) is None else b(a(x)), breaks(a) | pull_back(a, breaks(b)))
        out.append(got)
    return out


def _mono_pairs():
    ms = _monotone_corpus()
    return [(a, b) for a in ms for b in ms[::3]]


def _mixed_pairs():
    ms, xs = _monotone_corpus(), _almost_corpus()
    return [(a, b) for a in xs for b in xs[::4] + ms[::5]] + [(m, x) for m in ms[::4] for x in xs[::3]]


def _solutions(solve, within):
    rng = random.Random(53)
    out = []
    for _ in range(6):
        if within == "monotone":
            a, x = random_element(rng, 2, 2), random_element(rng, 2, 2)
        else:
            a, x = am.random_almost(rng, 2, 3, 3), am.random_almost(rng, 2, 3, 3)
        b = a * x if solve is solve_right else x * a
        sols = solve(a, b, within)
        assert sols and all((a * s if solve is solve_right else s * a) == b for s in sols)
        out += sols
    return out


def _draws(flavor):
    rng = random.Random(54)
    out = []
    for c in _monotone_corpus()[:6] + _almost_corpus()[:6]:
        dom = [x for x in range(-6, 7) if x in c]
        nb = BasicNeighborhood(c, rng.sample(dom, min(2, len(dom))), flavor)
        out += [sample_member(nb, rng) for _ in range(4)]
    return out


SEGMENTS = (Segment(NEG_INF, -1, 0), Segment(1, 4, -1), Segment(6, POS_INF, -2))

BUILDERS = {
    "mul": lambda: _products(_mono_pairs()),
    "inverse": lambda: [e.inverse() for e in _monotone_corpus()],
    "normalize": lambda: [normalize([(6, POS_INF, -2), [1, 2, -1], (NEG_INF, -1, 0), (3, 4, -1)]), normalize(SEGMENTS)],
    "parse_id": lambda: [parse_element("id")],
    "parse_shift": lambda: [parse_element("shift(-7)"), parse_element(f"shift({BIG})")],
    "parse_gaps": lambda: [parse_element("E{-3,0,1,5}"), parse_element("E{}")],
    "parse_seg": lambda: [parse_element("seg[(-inf..-1,+0),(1..4,-1),(6..+inf,-2)]")],
    "constructor_lists": lambda: [MonotoneElement([[NEG_INF, -1, 0], [1, 4, -1], [6, POS_INF, -2]])],
    "constructor_segments": lambda: [MonotoneElement(SEGMENTS), MonotoneElement(list(SEGMENTS))],
    "shift": lambda: [shift(0), shift(-BIG), identity()],
    "collapse": lambda: [collapse_element({0, 3, 4}), collapse_element(set()), core._collapse_runs([(-BIG, 0)])],
    "element_from_gaps": lambda: [element_from_gaps({1, 2}, {-3}, 4), element_from_gaps((), (), 2)],
    "to_element": lambda: [IdempotentGaps({0, 3, 4}).to_element(), IdempotentGaps().to_element()],
    "bicyclic_gen": lambda: [bicyclic.gen(n, o, c) for n in (-2, BIG) for o in "+-" for c in "pq"],
    "solve_right_monotone": lambda: _solutions(solve_right, "monotone"),
    "solve_left_monotone": lambda: _solutions(solve_left, "monotone"),
    "solve_right_almost": lambda: _solutions(solve_right, "almost"),
    "solve_left_almost": lambda: _solutions(solve_left, "almost"),
    "w_draw": lambda: _draws("W"),
    "h_draw": lambda: _draws("H"),
    "compose_almost": lambda: _products(_mixed_pairs()),
    "inverse_almost": lambda: [e.inverse() for e in _almost_corpus()],
    "from_monotone": lambda: [am.from_monotone(e) for e in _monotone_corpus()],
    "to_monotone": lambda: [am.to_monotone(am.from_monotone(e)) for e in _monotone_corpus()],
    "canonicalize": lambda: [am.canonicalize(e) for e in _almost_corpus() + _monotone_corpus()],
    "as_almost": lambda: [am.as_almost(e) for e in _monotone_corpus()],
    "make_almost": lambda: [am.make_almost(-2, 1, 4, -1, {-1: 2, 0: 0, 2: 1}), am.make_almost(0, 0, 3, 0, {1: 1, 2: 2})],
    "parse_almost": lambda: [am.parse_almost("am[d=-2,L=1,u=4,R=-1; -1->2, 0->0, 2->1]")],
    "unit_recompose": lambda: [am.unit_recompose(am.UnitDecomposition(((-1, -2), (-2, -1)), 0)), am.random_unit(55)],
}


def _stored_as_segments(e):
    """The same map with its pieces stored as Segments."""
    return type(e)._trusted(tuple(starmap(Segment, e.pieces)))


@pytest.mark.parametrize("name", BUILDERS)
def test_every_builder_stores_plain_tuples(name):
    elems = BUILDERS[name]()
    assert elems
    for e in elems:
        assert type(e.pieces) is tuple
        assert all(type(p) is tuple and len(p) == 3 for p in e.pieces), (name, e.pieces)
        if isinstance(e, MonotoneElement):
            segs = e.segments
            assert type(segs) is tuple and all(type(s) is Segment for s in segs)
            assert segs == e.pieces and segs is not e.segments
        else:
            assert not hasattr(e, "segments")
        twin = _stored_as_segments(e)
        assert twin == e and e == twin and hash(twin) == hash(e)


def test_segments_is_a_read_only_view():
    e = parse_element("seg[(-inf..0,+0),(2..+inf,+1)]")
    assert [(s.lo, s.hi, s.offset) for s in e.segments] == [(NEG_INF, 0, 0), (2, POS_INF, 1)]
    with pytest.raises(AttributeError):
        e.segments = ()
    with pytest.raises(AttributeError):
        e.pieces = ()
    assert unit_to_shift(shift(-BIG)) == -BIG


# -- copies and pickles ---------------------------------------------------------------


def _wide_unit_product(width):
    swap = am.unit_recompose(am.UnitDecomposition(((-1, -2), (-2, -1)), 0))
    return swap * parse_element(f"seg[(-inf..0,+0),(1..{width},+1),({width + 1}..+inf,+2)]")


@pytest.mark.width
def test_wide_copies_and_pickles_cost_what_the_pieces_cost():
    # widths in increasing order: a copy that grows with the width fails at 10^5, before 10^12 exhausts memory
    for width in (10**5, 10**12):
        e = _wide_unit_product(width)
        assert len(e.pieces) == 6
        assert len(pickle.dumps(e)) < 1024, width
        for fn in (lambda: copy.copy(e), lambda: copy.deepcopy(e), lambda: pickle.loads(pickle.dumps(e))):
            ms, twin = _fastest_ms(fn)
            assert ms < 1, f"{ms:.3f} ms at width {width}"
            assert type(twin) is type(e) and twin == e and hash(twin) == hash(e)
            assert all(type(p) is tuple for p in twin.pieces)


TAMPERED = [
    (((NEG_INF, 0, 0), (1, 1, -1), (2, POS_INF, 0)), "overlapping images"),
    (((NEG_INF, 0, 0), (1, 3, 1), (4, POS_INF, 1)), "unmerged equal-offset neighbours"),
    (((NEG_INF, 0, 0), (1, 5, 1)), "bounded right piece"),
    (((-5, 0, 0), (1, POS_INF, 1)), "bounded left piece"),
    (((NEG_INF, 0.5, 0), (1, POS_INF, 1)), "non-int bound"),
    (((NEG_INF, 0, 0), (3, 2, 1), (4, POS_INF, 2)), "empty piece"),
    (((NEG_INF, 0, 0), (2, 1), (4, POS_INF, 2)), "a pair, not a triple"),
    ((), "no pieces"),
]


@pytest.mark.parametrize("pieces,what", TAMPERED, ids=[what for _, what in TAMPERED])
@pytest.mark.parametrize("cls", [MonotoneElement, am.AlmostMonotoneElement])
def test_tampered_pickles_are_rejected(cls, pieces, what):
    good = pickle.dumps(cls._trusted(((NEG_INF, 0, 0), (2, POS_INF, 1))))
    assert pickle.loads(good).pieces == ((NEG_INF, 0, 0), (2, POS_INF, 1))
    with pytest.raises(InvalidElementError):
        pickle.loads(pickle.dumps(_Forged(*cls._trusted(pieces).__reduce__())))


def test_pickled_pieces_keep_each_class_check():
    swap = ((NEG_INF, -3, 0), (-2, -2, 1), (-1, -1, -1), (0, POS_INF, 0))
    x = pickle.loads(pickle.dumps(_Forged(core._unpickled, (am.AlmostMonotoneElement, swap))))
    assert x == am.unit_recompose(am.UnitDecomposition(((-2, -1), (-1, -2)), 0))
    with pytest.raises(InvalidElementError, match="images overlap or are out of order"):
        pickle.loads(pickle.dumps(_Forged(core._unpickled, (MonotoneElement, swap))))


# pickles written when copies rebuilt through the constructors:
# make_almost(-2, 1, 4, -1, {-1: 2, 0: 0, 2: 1}) and seg[(-inf..0,+0),(2..+inf,+1)], protocol 2
OLD_ALMOST = (
    b"\x80\x02ccofinj.almost\nAlmostMonotoneElement\nq\x00(J\xfe\xff\xff\xffK\x01K\x04J\xff\xff\xff\xff}q\x01"
    b"(J\xff\xff\xff\xffK\x02K\x00K\x00K\x02K\x01utq\x02Rq\x03."
)
OLD_MONOTONE = (
    b"\x80\x02ccofinj.core\nMonotoneElement\nq\x00ccofinj.core\nSegment\nq\x01G\xff\xf0\x00\x00\x00\x00\x00\x00"
    b"K\x00K\x00\x87q\x02\x81q\x03h\x01K\x02G\x7f\xf0\x00\x00\x00\x00\x00\x00K\x01\x87q\x04\x81q\x05\x86q\x06"
    b"\x85q\x07Rq\x08."
)


def test_old_pickles_still_load():
    x = pickle.loads(OLD_ALMOST)
    assert x == am.make_almost(-2, 1, 4, -1, {-1: 2, 0: 0, 2: 1})
    assert x.pieces == am.make_almost(-2, 1, 4, -1, {-1: 2, 0: 0, 2: 1}).pieces
    m = pickle.loads(OLD_MONOTONE)
    assert m == parse_element("seg[(-inf..0,+0),(2..+inf,+1)]")
    assert all(type(p) is tuple for p in m.pieces)


# -- repr -------------------------------------------------------------------------------


def _swap(x, y):
    """The almost-monotone unit that swaps x and y."""
    return am.unit_recompose(am.UnitDecomposition(((x, y), (y, x)), 0))


@pytest.mark.parametrize("points, as_text", [(64, True), (65, False)])
def test_repr_is_the_text_up_to_a_64_point_window(points, as_text):
    n = points - 1  # every element below has the window (0, n)
    elems = [
        IdempotentGaps(range(1, n)).to_element(),
        parse_element(f"seg[(-inf..0,+0),({n}..+inf,+1)]"),
        _swap(1, n - 1),
    ]
    assert [type(e) for e in elems] == [MonotoneElement, MonotoneElement, am.AlmostMonotoneElement]
    for e in elems:
        assert core._window(e.pieces) == (0, n)
        assert repr(e) == (e.to_text() if as_text else f"{type(e).__name__}({e.pieces})")


@pytest.mark.width
def test_wide_reprs_print_their_pieces():
    gap = parse_element(f"seg[(-inf..0,+0),({10**12 + 1}..+inf,+0)]")
    for e in (gap, gap * shift(BIG), _swap(0, 10**12) * shift(BIG), _wide_unit_product(10**12)):
        ms, text = _fastest_ms(lambda: repr(e))
        assert text == f"{type(e).__name__}({e.pieces})"
        assert len(text) < 1024 and ms < 10, (len(text), ms)


@pytest.mark.parametrize("points, as_text", [(64, True), (65, False)])
def test_idempotent_and_neighborhood_reprs_are_their_text_up_to_64_points(points, as_text):
    for runs in (((1, points),), ((1, 1), (points, points))):
        eps = IdempotentGaps._of_runs(runs)
        assert repr(eps) == (eps.to_text() if as_text else f"IdempotentGaps(runs={runs})")
    # the window (0, points - 1) holds `points` points, as in the element test above
    center = IdempotentGaps(range(1, points - 1)).to_element()
    for nb in (BasicNeighborhood(center, [0], "W"), BasicNeighborhood(am.from_monotone(center), [0, points - 1], "H")):
        assert repr(nb) == (nb.to_text() if as_text else nb.to_text().replace(center.to_text(), repr(center)))
        assert len(repr(nb)) < 300


@pytest.mark.width
def test_wide_idempotent_and_neighborhood_reprs_print_their_runs_and_pieces():
    eps = IdempotentGaps._of_runs(((1, 10**12),))
    nb = BasicNeighborhood(eps.to_element(), [0, BIG], "H")
    want = {eps: "IdempotentGaps(runs=((1, 1000000000000),))", nb: f"nbhd_h({eps.to_element()!r}; 0, {BIG})"}
    for value, text in want.items():
        ms, got = _fastest_ms(lambda: repr(value))
        assert got == text
        assert len(got) < 1024 and ms < 10, (len(got), ms)


# -- evaluation ---------------------------------------------------------------------------

NOT_INTS = [1.5, 2.0, True, False, "a", None, NEG_INF, POS_INF, (1,)]


@pytest.mark.parametrize(
    "e",
    [identity(), shift(BIG), element_from_gaps({0}, {BIG}, -BIG), am.from_monotone(identity()), _wide_unit_product(10**12)],
    ids=["id", "shift", "gaps", "almost_id", "almost_wide"],
)
def test_evaluation_takes_integers_only(e):
    for x in NOT_INTS:
        with pytest.raises(InvalidElementError, match="points must be integers"):
            e(x)
        assert (x in e) is False
    for x in (0, -1, 1, BIG, -BIG, 10**12 + 1):
        y = e(x)
        assert (x in e) is (y is not None)
        assert y is None or type(y) is int
    assert identity()(BIG) == BIG and shift(BIG)(-BIG) == 0
