"""Gap runs against the point-walk references in helpers.

Green's relations, pin-neighborhood membership, the solvers' precondition and
the three topology certificates read gap sets as sorted maximal (lo, hi) runs
and elements as translation pieces.  Each result here must equal the
frozenset and point-by-point version kept in helpers, on monotone,
almost-monotone and mixed pairs, including 70-segment elements, 2^60
offsets and pairs that are the same map in two representations.  The
builders over runs (collapses, idempotents, elements with given gaps), the
zones that the monotone solver and the monotone W draw read (``core._zones``),
the monotone solver's cells and the sampler's extent are checked the same way
against the point loops in helpers.  ``IdempotentGaps`` stores runs: each of
its methods, ``connect_idempotents`` and ``monotonizers`` are checked against
point sets, and at a 10^12-wide run at 2^60.
"""

import contextlib
import io
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofinj import almost as am
from cofinj import cli
from cofinj.almost import minimal_exceptions, monotonizers
from cofinj.congruence import signature_preimage, witness_idempotent
from cofinj.core import (
    NEG_INF,
    POS_INF,
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    _collapse_runs,
    _from_runs,
    _idempotent,
    _runs_within,
    _translation_off,
    _zones,
    element_from_gaps,
    identity,
    parse_element,
    random_element,
    shift,
)
from cofinj.green import (
    connect_idempotents,
    factorize_simple,
    h_class_members,
    h_equiv,
    l_equiv,
    r_equiv,
    solve_left,
    solve_right,
)
from cofinj.topology import BasicNeighborhood, _extent, inverse_cover, member, product_cover, sample_member, separate

from helpers import (
    _fastest_ms,
    _Forged,
    _wide_domain,
    by_pieces,
    expand_runs,
    point_monotonizers,
    ref_collapse,
    ref_dom_within,
    ref_extent,
    ref_from_gaps,
    ref_h_equiv,
    ref_idempotent,
    ref_inverse_cover,
    ref_l_equiv,
    ref_member,
    ref_product_cover,
    ref_r_equiv,
    ref_sample_member,
    ref_separate,
    ref_solve_right_monotone,
    ref_zones,
)

WIDE = 2**60


def _corpus(rng):
    """Monotone and almost-monotone elements: small, 70-segment, and the same maps in the other form."""
    mono = [identity(), shift(3)] + [random_element(rng, 3, 3) for _ in range(24)]
    for _ in range(2):
        d = rng.sample(range(-300, 301, 4), 40)
        r = rng.sample(range(-300, 301, 4), 40)
        mono.append(element_from_gaps(d, r, rng.randint(-3, 3)))
    assert max(len(e.segments) for e in mono) >= 70
    almost = [am.random_almost(rng, 2, 5, 6) for _ in range(24)]
    almost += [am.random_almost(rng, 3, 12, 20) for _ in range(4)]
    almost += [am.random_unit(rng) for _ in range(4)]
    twins = [am.from_monotone(e) for e in mono[:12]]
    return mono + almost + twins


def _partners(a, corpus, rng):
    """Elements sharing a domain, a range, a shrunk domain, the map itself, or nothing with a."""
    unit = shift(rng.randint(-2, 2)) if rng.random() < 0.5 else am.random_unit(rng)
    cut = IdempotentGaps(rng.sample(range(-6, 7), rng.randint(1, 3))).to_element()
    twin = am.from_monotone(a) if isinstance(a, MonotoneElement) else am.canonicalize(a)
    return [a * unit, unit * a, cut * a, twin, rng.choice(corpus)]


def _pins(elem, rng, k=2):
    pts = [x for x in range(-5, 6) if x in elem]
    return frozenset(rng.sample(pts, min(k, len(pts), rng.randint(0, k))))


def _wide(e):
    """The same map followed by a 2^60 translation: every image moves out by 2^60."""
    return e * shift(WIDE)


def _is_translation(e):
    e = am.as_almost(e)
    return not e.middle and e.left_offset == e.right_offset and e.right_start == e.left_end + 1


def _pairs(seed):
    rng = random.Random(seed)
    corpus = _corpus(rng)
    pairs = [(a, b) for a in corpus for b in _partners(a, corpus, rng)]
    return rng, corpus, pairs


def test_runs_are_maximal_and_expand_to_gap_sets():
    rng, corpus, _ = _pairs(31)
    corpus += [_wide(e) for e in corpus[:10]]
    corpus += [element_from_gaps([WIDE + g for g in rng.sample(range(-8, 9), 3)], [-WIDE], 1) for _ in range(3)]
    for e in corpus:
        for runs, gaps in ((e._dom_runs(), e.dom_gaps()), (e._ran_runs(), e.ran_gaps())):
            assert all(lo <= hi for lo, hi in runs)
            assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(runs, runs[1:]))
            assert expand_runs(runs) == gaps


def test_relations_and_solver_precondition_match_point_walk():
    _, _, pairs = _pairs(32)
    pairs += [(_wide(a), _wide(b)) for a, b in pairs[::7]]
    seen = set()
    for a, b in pairs:
        for fn, ref in ((r_equiv, ref_r_equiv), (l_equiv, ref_l_equiv), (h_equiv, ref_h_equiv)):
            got = fn(a, b)
            assert got == ref(a, b), (fn.__name__, a, b)
            seen.add((fn.__name__, got))
        within = _runs_within(a._dom_runs(), b._dom_runs())
        assert within == ref_dom_within(a, b), (a, b)
        seen.add(("within", within))
        if not within:
            assert solve_right(a, b) == ()
            assert solve_left(a.inverse(), b.inverse()) == ()
    assert len(seen) == 8  # every relation and the precondition came out both ways


def test_member_matches_point_walk():
    rng, corpus, pairs = _pairs(33)
    pairs += [(_wide(a), _wide(b)) for a, b in pairs[::7]]
    seen = set()
    for c, e in pairs:
        pins = _pins(c, rng)
        for flavor in ("W", "H"):
            nb = BasicNeighborhood(c, pins, flavor)
            got = member(nb, e)
            assert got == ref_member(nb, e), (nb, e)
            seen.add((flavor, got))
    assert len(seen) == 4


def test_product_and_inverse_cover_match_point_walk():
    rng, corpus, pairs = _pairs(34)
    # a's images and b's domain both move out by 2^60; the product stays a * b.
    # compose_almost walks every point between the two windows, and a total
    # translation keeps its window at 0, so such a b is paired through the
    # monotone kernel only.
    wide = [
        (_wide(a), _wide_domain(b))
        for a, b in pairs[::7]
        if isinstance(a, MonotoneElement) and isinstance(b, MonotoneElement) or not _is_translation(b)
    ]
    wide += [(element_from_gaps([WIDE + 3, WIDE + 5], [WIDE - 1], k), random_element(rng, 3, 3)) for k in (-2, 0, 2)]
    for a, b in pairs + wide:
        pins = _pins(a * b, rng)
        assert product_cover(a, b, pins) == ref_product_cover(a, b, pins), (a, b, pins)
        pins = _pins(a, rng)
        assert inverse_cover(a, pins) == ref_inverse_cover(a, pins), (a, pins)


def test_separate_matches_point_walk():
    _, _, pairs = _pairs(35)
    kinds = set()
    for a, b in pairs:
        if am.canonicalize(a) == am.canonicalize(b):
            with pytest.raises(InvalidElementError):
                separate(a, b)
            kinds.add("same map")
            continue
        want = ref_separate(a, b)
        assert separate(a, b) == want, (a, b)
        # following both maps by one translation keeps every disagreement and domain
        assert separate(_wide(a), _wide(b)) == want, (a, b)
        kinds.add("disagree" if all(want) else "domain")
    assert kinds == {"same map", "disagree", "domain"}


# -- run builders against the point loops ----------------------------------------------


def _random_runs(rng, base=0):
    """Sorted disjoint (lo, hi) runs near base; neighbours often touch, and one-point runs are common."""
    runs = []
    x = base + rng.randint(-12, 0)
    for _ in range(rng.randint(0, 5)):
        x += rng.choice((0, 0, 1, 2, 5))
        hi = x + rng.choice((0, 0, 0, 1, 3))
        runs.append((x, hi))
        x = hi + 1
    return runs


def test_run_builders_match_point_loops():
    rng = random.Random(41)
    cases = [[(0, 0), (1, 1)], [(0, 0), (1, 1), (2, 2)], [(-3, -3), (-2, 0), (1, 1), (4, 4)], []]
    cases += [_random_runs(rng) for _ in range(300)]
    cases += [_random_runs(rng, WIDE) for _ in range(20)]
    assert any(hi1 + 1 == lo2 for runs in cases for (_, hi1), (lo2, _) in zip(runs, runs[1:]))
    for runs in cases:
        pts = expand_runs(runs)
        assert _collapse_runs(runs) == ref_collapse(pts), runs
        assert _idempotent(runs) == ref_idempotent(pts) == IdempotentGaps(pts).to_element(), runs
        assert MonotoneElement(_translation_off(runs, WIDE)) == _idempotent(runs) * shift(WIDE), runs
    for d, r in zip(cases, reversed(cases)):
        k = rng.randint(-3, 3)
        want = ref_from_gaps(expand_runs(d), expand_runs(r), k)
        assert _from_runs(d, r, k) == want == element_from_gaps(expand_runs(d), expand_runs(r), k), (d, r, k)
        # two run lists sorted together overlap; the idempotent is off their union
        assert _idempotent(sorted(d + r)) == ref_idempotent(expand_runs(d) | expand_runs(r)), (d, r)
    with pytest.raises(InvalidElementError):
        _from_runs([(0, 1)], [], 0.5)


def test_monotone_solver_cells_match_point_cells():
    rng = random.Random(42)
    pairs = []
    for _ in range(120):
        a = random_element(rng, 3, 2)
        pairs.append((a, a * random_element(rng, 3, 2)))
        pairs.append((a, random_element(rng, 3, 2)))
        eps = IdempotentGaps(rng.sample(range(-4, 5), rng.randint(0, 4))).to_element()
        pairs.append((eps, eps))
        pairs.append((a, eps * a))
    seen = set()
    for a, b in pairs:
        got = solve_right(a, b, within="monotone")
        assert got == by_pieces(ref_solve_right_monotone(a, b)), (a, b)
        seen.add(min(len(got), 2))
    assert seen == {0, 1, 2}


BOX_POINTS = range(-8, 9)


@st.composite
def _zone_cases(draw):
    """(anchors, runs) on the box [-8, 8], in the forms that the callers of ``_zones`` pass and one more.

    ``pins``: one-point anchors between the W plan's infinite end anchors.
    ``pieces``: wider anchors whose outer two run to -inf and +inf, as the
    solver's forced pieces do.  ``bounded``: wider anchors with finite ends
    only, which no caller passes yet.  Neighbouring anchors may touch, and neighbouring images too.  The
    runs are maximal, and either end may run on to infinity.
    """
    form = draw(st.sampled_from(("pins", "pieces", "bounded")))
    # each box point lies outside the anchors (0), starts one (1), or extends the one before (2)
    doms = []
    for x, mark in zip(BOX_POINTS, draw(st.lists(st.sampled_from((0, 1, 2)), min_size=17, max_size=17))):
        if mark == 2 and form != "pins" and doms and doms[-1][1] == x - 1:
            doms[-1][1] = x
        elif mark:
            doms.append([x, x])
    y = draw(st.integers(-8, 8))
    anchors = []
    for lo, hi in doms:
        anchors.append((lo, hi, y - lo))
        y += hi - lo + 1 + draw(st.integers(0, 2))
    if form == "pins":
        anchors = [(NEG_INF, NEG_INF, 0), *anchors, (POS_INF, POS_INF, 0)]
    elif form == "pieces" and anchors:
        anchors[0] = (NEG_INF, *anchors[0][1:])
        anchors[-1] = (anchors[-1][0], POS_INF, anchors[-1][2])
    points = set(draw(st.sets(st.sampled_from(BOX_POINTS))))
    # -9 and 9 stand for the points beyond the box
    points |= {x for x, beyond in ((-9, draw(st.booleans())), (9, draw(st.booleans()))) if beyond}
    runs = [(NEG_INF if lo == -9 else lo, POS_INF if hi == 9 else hi) for lo, hi in _point_runs(points)]
    return anchors, runs


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_zone_cases())
def test_zones_match_point_zones(case):
    anchors, runs = case
    finite = [v for lo, hi, o in anchors for e in (lo, hi) if abs(e) != POS_INF for v in (e, e + o)]
    w = max(map(abs, finite), default=0) + 10
    assert _zones(anchors, runs) == ref_zones(anchors, runs, w)


def test_zones_examples():
    """Empty zones between touching anchors, runs across several zones, and the infinite outer zones."""
    ends = [(NEG_INF, NEG_INF, 0)], [(POS_INF, POS_INF, 0)]
    # adjacent pins 0 and 1 with adjacent values 5 and 6, then pin 4: one run spans all three
    pins = [(0, 0, 5), (1, 1, 5), (4, 4, 5)]
    assert _zones([*ends[0], *pins, *ends[1]], [(NEG_INF, 2), (4, POS_INF)]) == [
        (NEG_INF, 5, [(NEG_INF, -1)]),
        (5, 6, []),
        (6, 9, [(2, 2)]),
        (9, POS_INF, [(5, POS_INF)]),
    ]
    # no pins: one zone, unbounded both ways, holding every run
    assert _zones([*ends[0], *ends[1]], [(NEG_INF, 0), (3, POS_INF)]) == [(NEG_INF, POS_INF, [(NEG_INF, 0), (3, POS_INF)])]
    # the solver's pieces: wide anchors, the middle two touching; a run through them all is cut to each zone
    pieces = [(NEG_INF, -3, 0), (0, 2, 1), (3, 5, 4), (9, POS_INF, 3)]
    assert _zones(pieces, [(-2, -1), (6, 8)]) == [(-3, 1, [(-2, -1)]), (3, 7, []), (9, 12, [(6, 8)])]
    assert _zones(pieces, [(NEG_INF, POS_INF)]) == [(-3, 1, [(-2, -1)]), (3, 7, []), (9, 12, [(6, 8)])]
    assert _zones([(NEG_INF, POS_INF, 0)], [(0, 0)]) == []


@pytest.mark.width
def test_zones_ignore_gap_width():
    """10^12-wide runs and zones at 2^60 cost what narrow ones cost: under 10 ms, fastest of three."""
    big = 10**12
    pins = [(WIDE + k * big, WIDE + k * big, WIDE) for k in (0, 1, 3)]
    anchors = [(NEG_INF, NEG_INF, 0), *pins, (POS_INF, POS_INF, 0)]
    runs = [(NEG_INF, WIDE + big), (WIDE + 2 * big, POS_INF)]
    ms, got = _fastest_ms(lambda: _zones(anchors, runs))
    assert got == [
        (NEG_INF, 2 * WIDE, [(NEG_INF, WIDE - 1)]),
        (2 * WIDE, 2 * WIDE + big, [(WIDE + 1, WIDE + big - 1)]),
        (2 * WIDE + big, 2 * WIDE + 3 * big, [(WIDE + 2 * big, WIDE + 3 * big - 1)]),
        (2 * WIDE + 3 * big, POS_INF, [(WIDE + 3 * big + 1, POS_INF)]),
    ]
    assert ms < 10, f"{ms:.3f} ms"
    pieces = [(NEG_INF, WIDE, 0), (WIDE + big, WIDE + 2 * big, big), (WIDE + 3 * big, POS_INF, 2 * big)]
    ms, got = _fastest_ms(lambda: _zones(pieces, [(WIDE + 1, WIDE + big - 1), (WIDE + 2 * big + 1, WIDE + 3 * big - 1)]))
    assert got == [
        (WIDE, WIDE + 2 * big, [(WIDE + 1, WIDE + big - 1)]),
        (WIDE + 3 * big, WIDE + 5 * big, [(WIDE + 2 * big + 1, WIDE + 3 * big - 1)]),
    ]
    assert ms < 10, f"{ms:.3f} ms"


def test_extent_matches_window_view():
    rng, corpus, _ = _pairs(43)
    corpus += [am.from_monotone(shift(k)) for k in (-3, -1, 0, 1, 4)] + [shift(5), identity()]
    corpus += [_wide(e) for e in corpus[:10]]
    n = 0
    for e in corpus:
        for _ in range(40):
            pins = _pins(e, rng, 3)
            assert _extent(e, pins) == ref_extent(am.as_almost(e), pins), (e, pins)
            n += 1
    assert n > 3000


# -- cost that does not grow with the integers ----------------------------------------------

BIG = "seg[(-inf..0,+0),(1..+inf,+1000000000000)]"


def _eval(text):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["--eval", text])
    assert rc == 0
    return out.getvalue().strip()


@pytest.mark.width
def test_relations_membership_and_certificates_ignore_gap_width():
    """A 10^12-wide range gap costs what a narrow one costs.

    Each operation, called directly and, where the expression language has a
    form for it, through the CLI, must take under 10 ms (fastest of three
    calls).  inverse_cover, separate, factorize_simple, h_class_members,
    signature_preimage and witness_idempotent have no form.  The one
    solution of a * x == id is found without listing the 10^12 points of
    its cell, in either monoid, because the cell has no room for extra
    values; '<=' compares the idempotents' gap runs.  The audits draw
    monotone W members on runs, so they cost their pieces too.
    """
    a = parse_element(BIG)
    ainv = a.inverse()
    big = 10**12
    direct = [
        (lambda: r_equiv(a, ainv), False),
        (lambda: l_equiv(a, ainv), False),
        (lambda: h_equiv(a, ainv), False),
        (lambda: r_equiv(ainv, ainv * shift(1)), True),
        (lambda: member(BasicNeighborhood(a, {0}, "W"), ainv), True),
        (lambda: member(BasicNeighborhood(a, {0}, "H"), ainv), False),
        (lambda: member(BasicNeighborhood(ainv, {0}, "H"), ainv * shift(0)), True),
        (lambda: inverse_cover(a, {0}), (frozenset({0, 1}), frozenset({0, big + 1}))),
        (lambda: inverse_cover(ainv, {0}), (frozenset({0}), frozenset({0}))),
        (lambda: separate(a, a * shift(1)), (frozenset({0}), frozenset({0}))),
        (lambda: product_cover(a, ainv, {0}), (frozenset({0}), frozenset({0}))),
        (lambda: solve_right(a, identity()), (ainv,)),
        (lambda: solve_right(a, identity(), within="almost"), (am.from_monotone(ainv),)),
        (lambda: solve_left(ainv, identity(), within="almost"), (am.from_monotone(a),)),
        (lambda: factorize_simple(ainv, a), (ainv, ainv)),
        (lambda: h_class_members(a, [0, 5]), [a, shift(5) * a]),
        (lambda: signature_preimage((0, big)), a),
        (lambda: signature_preimage((big, 0)), ainv * shift(big)),
        (lambda: witness_idempotent(parse_element(f"seg[(-inf..0,+0),({big}..+inf,+0)]"), identity()),
         parse_element(f"seg[(-inf..0,+0),({big}..+inf,+0)]")),
        (lambda: witness_idempotent(shift(WIDE), shift(WIDE) * IdempotentGaps({5}).to_element()),
         parse_element(f"seg[(-inf..4,+0),({WIDE + 1}..+inf,+0)]")),
    ]
    via_cli = [
        (f"{BIG} ~R {BIG}^-1", "false"),
        (f"{BIG} ~L {BIG}^-1", "false"),
        (f"{BIG} ~H {BIG}^-1", "false"),
        (f"in(nbhd({BIG}; 0), {BIG}^-1)", "true"),
        (f"in(nbhd_h({BIG}; 0), {BIG}^-1)", "false"),
        (f"cover({BIG}, {BIG}^-1; 0)", "({0}, {0})"),
        (f"solve {BIG}*? = id", f"{{{ainv.to_text()}}}"),
        (f"solve ?*{BIG}^-1 = id", f"{{{BIG}}}"),
        (f"seg[(-inf..0,+0),({big + 1}..+inf,+0)] <= id", "true"),
        (f"id <= seg[(-inf..0,+0),({big + 1}..+inf,+0)]", "false"),
        (f"audit_sep({BIG}, {BIG}^-1)", "true"),
        (f"audit_cover({BIG}, {BIG}^-1; 0)", "true"),
        (f"audit_inv({BIG}; 0)", "true"),
    ]
    for fn, want in direct + [(lambda t=t: _eval(t), w) for t, w in via_cli]:
        ms, got = _fastest_ms(fn)
        assert got == want
        assert ms < 10, f"{ms:.1f} ms"


@pytest.mark.width
def test_h_draws_ignore_gap_width_after_the_plan():
    """An H draw grafts its permutations onto the gap runs: under 1 ms per draw, fastest of three.

    The plan still lists the window's domain points, so it is built once
    before the clock starts.  The first draw matches the point-by-point
    sampler in helpers, which walks the 10^5-wide window.
    """
    c = parse_element("seg[(-inf..0,+0),(100000..+inf,+0)]")
    nb = BasicNeighborhood(c, {0}, "H")
    rng, r_ref = random.Random(48), random.Random(48)
    assert sample_member(nb, rng) == ref_sample_member(nb, r_ref)
    assert rng.getstate() == r_ref.getstate()
    moved = 0
    for _ in range(10):
        ms, d = _fastest_ms(lambda: sample_member(nb, rng))
        assert ms < 1, f"{ms:.2f} ms"
        assert member(nb, d)
        moved += am.canonicalize(d) != c
    assert moved > 0


# -- the idempotent semilattice on runs -------------------------------------------------


def _point_runs(points):
    """The sorted maximal runs of a point set, one point at a time."""
    runs = []
    for x in sorted(points):
        if runs and runs[-1][1] + 1 == x:
            runs[-1] = (runs[-1][0], x)
        else:
            runs.append((x, x))
    return tuple(runs)


# up to 8 (start, length) runs in [-50, 50]; they may touch or overlap, so the union has at most 8 maximal runs
RUN_SETS = st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 12)), max_size=8).map(
    lambda runs: frozenset(x for lo, n in runs for x in range(lo, min(lo + n, 50) + 1))
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(RUN_SETS, RUN_SETS, st.integers(-50, 50), st.integers(-3, 3), st.integers(0, 2**32))
def test_idempotents_match_point_sets(pe, pf, extra, i, seed):
    e, f = IdempotentGaps(pe), IdempotentGaps(pf)
    below = pe | {extra}
    g = IdempotentGaps(below)
    for ident, pts in ((e, pe), (f, pf), (g, below)):
        assert ident.runs == _point_runs(pts)
        assert ident.gaps == pts
        assert ident.to_text() == "E{" + ",".join(map(str, sorted(pts))) + "}"
        assert ident.to_element() == ref_idempotent(pts)
        assert IdempotentGaps.from_element(ref_idempotent(pts)) == ident
        assert IdempotentGaps.from_element(am.from_monotone(ref_idempotent(pts))) == ident
        twin = IdempotentGaps._of_runs(_point_runs(pts))
        assert twin == ident and hash(twin) == hash(ident)
    for x, px in ((e, pe), (f, pf), (g, below)):
        for y, py in ((e, pe), (f, pf), (g, below)):
            assert (x == y) == (px == py)
            assert x != y or hash(x) == hash(y)
            assert x.leq(y) == (py <= px)
            assert x.meet(y).gaps == px | py
            assert x.meet(y) == IdempotentGaps(px | py)
            assert x.covers(y) == (px <= py and len(py - px) == 1)
            assert connect_idempotents(x, y, i) == ref_from_gaps(px, py, i)
    # an almost-monotone element whose gap runs are pe and pf, moved about by a unit on either side
    rng = random.Random(seed)
    m = _from_runs(_point_runs(pe), _point_runs(pf), i)
    for a in (am.compose_almost(am.random_unit(rng), m), am.compose_almost(m, am.random_unit(rng)), m):
        got, want = monotonizers(a), point_monotonizers(a)
        assert [x.gaps for x in got] == [x.gaps for x in want], a
        assert got == want


@pytest.mark.width
def test_idempotents_ignore_gap_width():
    """A 10^12-wide gap run at 2^60 costs what a narrow one costs: under 1 ms, fastest of three."""
    big = 10**12
    lo, hi = WIDE, WIDE + big
    eps = parse_element(f"seg[(-inf..{lo - 1},+0),({hi + 1}..+inf,+0)]")
    e = IdempotentGaps._of_runs(((lo, hi),))
    swap = am.unit_recompose(am.UnitDecomposition(((-1, -2), (-2, -1)), 0))
    a = am.compose_almost(swap, _from_runs([(lo, hi)], [(2 * WIDE, 2 * WIDE + big)], WIDE))
    cases = [
        (lambda: IdempotentGaps.from_element(eps).runs, ((lo, hi),)),
        (lambda: IdempotentGaps.from_element(am.from_monotone(eps)).runs, ((lo, hi),)),
        (lambda: IdempotentGaps._of_runs(((lo - 5, lo - 5), (lo, hi))).leq(e), True),
        (lambda: e.leq(IdempotentGaps._of_runs(((lo - 5, lo - 5), (lo, hi)))), False),
        (lambda: e.meet(IdempotentGaps._of_runs(((lo - 5, lo - 1), (hi + 2, hi + 2)))).runs,
         ((lo - 5, hi), (hi + 2, hi + 2))),
        (lambda: e.covers(IdempotentGaps._of_runs(((lo, hi + 1),))), True),
        (lambda: e.covers(IdempotentGaps._of_runs(((-WIDE, -WIDE), (lo, hi)))), True),
        (lambda: e.covers(IdempotentGaps._of_runs(((lo, hi + 2),))), False),
        (lambda: e.covers(IdempotentGaps._of_runs(((lo + 1, hi + 1),))), False),
        (lambda: e.to_element().pieces, eps.pieces),
        (lambda: e == IdempotentGaps.from_element(eps) and hash(e) == hash(IdempotentGaps.from_element(eps)), True),
    ]
    for fn, want in cases:
        ms, got = _fastest_ms(fn)
        assert got == want
        assert ms < 1, f"{ms:.3f} ms"
    far = IdempotentGaps._of_runs(((-WIDE - 2 * big, -WIDE),))
    ms, c = _fastest_ms(lambda: connect_idempotents(e, far, WIDE))
    assert ms < 1, f"{ms:.3f} ms"
    # the range has big more gaps than the domain, so the right tail moves big further
    assert c._dom_runs() == [(lo, hi)] and c._ran_runs() == [(-WIDE - 2 * big, -WIDE)]
    assert (c.left_offset, c.right_offset) == (WIDE, WIDE + big)
    ms, got = _fastest_ms(lambda: monotonizers(a))
    assert ms < 1, f"{ms:.3f} ms"
    assert minimal_exceptions(a) == frozenset({-2})
    left, right, both = got
    assert left.runs == ((-2, -2), (lo, hi))
    assert right.runs == ((lo - 1, lo - 1), (2 * WIDE, 2 * WIDE + big))
    assert both.runs == ((-2, -2), (lo - 1, hi), (2 * WIDE, 2 * WIDE + big))


# pickled when IdempotentGaps stored its point set: IdempotentGaps({0, 3, 4}), protocol 2
OLD_IDEMPOTENT = (
    b"\x80\x02ccofinj.core\nIdempotentGaps\nq\x00c__builtin__\nfrozenset\nq\x01]q\x02(K\x00K\x03K\x04e"
    b"\x85q\x03Rq\x04\x85q\x05Rq\x06."
)


def test_old_idempotent_pickles_still_load():
    e = pickle.loads(OLD_IDEMPOTENT)
    assert e == IdempotentGaps({0, 3, 4}) and hash(e) == hash(IdempotentGaps({0, 3, 4}))
    assert e.runs == ((0, 0), (3, 4))


@pytest.mark.parametrize(
    "runs",
    [5, ((0, 1), (2, 3)), ((0, 1), (1, 3)), ((3, 4), (0, 1)), ((1, 0),), ((0.0, 1),), ((True, 1),), ((0, 1, 2),), [[0, 1]]],
    ids=["not runs", "touching", "overlapping", "unsorted", "empty run", "float", "bool", "triple", "list"],
)
def test_pickled_runs_are_checked(runs):
    e = IdempotentGaps({-3, 0, 1, 2, WIDE})
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        twin = pickle.loads(pickle.dumps(e, proto))
        assert twin == e and hash(twin) == hash(e) and type(twin.runs) is tuple
    assert len(pickle.dumps(IdempotentGaps._of_runs(((0, 10**12),)))) < 200
    with pytest.raises(InvalidElementError):
        pickle.loads(pickle.dumps(_Forged(IdempotentGaps._of_runs, (runs,))))
