import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from cofinj.core import (
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    Segment,
    element_from_gaps,
    identity,
    normalize,
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
from cofinj import almost as am
from cofinj import green
from cofinj.topology import BasicNeighborhood

from helpers import _fastest_ms, by_pieces, ref_solve_right_almost, ref_solve_right_monotone

A0P = parse_element("seg[(-inf..0,+0),(1..+inf,+1)]")


# -- R / L / H ---------------------------------------------------------------------


def test_equiv_examples():
    a = random_element(3, 2, 2)
    assert r_equiv(a, a) and l_equiv(a, a) and h_equiv(a, a)
    assert r_equiv(A0P, identity())
    assert not l_equiv(A0P, identity())
    assert h_equiv(shift(1), shift(5))


def test_equiv_matches_gap_characterization():
    rng = random.Random(1)
    for _ in range(200):
        a, b = random_element(rng, 2, 2), random_element(rng, 2, 2)
        assert r_equiv(a, b) == (a.dom_gaps() == b.dom_gaps())
        assert l_equiv(a, b) == (a.ran_gaps() == b.ran_gaps())
        assert h_equiv(a, b) == (r_equiv(a, b) and l_equiv(a, b))


def test_equiv_mixed_representations():
    a = am.from_monotone(A0P)
    assert r_equiv(a, identity())
    assert not l_equiv(a, identity())


def test_r_equiv_matches_mutual_solvability():
    rng = random.Random(2)
    for _ in range(60):
        a, b = random_element(rng, 2, 2), random_element(rng, 2, 2)
        forward = bool(solve_right(a, b))
        backward = bool(solve_right(b, a))
        assert r_equiv(a, b) == (forward and backward)
        lforward = bool(solve_left(a, b))
        lbackward = bool(solve_left(b, a))
        assert l_equiv(a, b) == (lforward and lbackward)


def test_monotone_h_rigidity():
    rng = random.Random(3)
    for _ in range(100):
        a = random_element(rng, 3, 3)
        for b in h_class_members(a, range(a.left_offset - 3, a.left_offset + 4)):
            shared = any(
                a(x) is not None and a(x) == b(x) for x in range(-12, 13)
            )
            assert shared == (a == b)


# -- connecting idempotents -----------------------------------------------------------


def test_connect_examples():
    assert connect_idempotents(IdempotentGaps(), IdempotentGaps(), 3) == shift(3)
    got = connect_idempotents(IdempotentGaps({0}), IdempotentGaps({5}), 0)
    assert got == parse_element("seg[(-inf..-1,+0),(1..5,-1),(6..+inf,+0)]")


def test_connect_products_and_injectivity():
    rng = random.Random(4)
    for _ in range(200):
        eps = IdempotentGaps(rng.sample(range(-6, 7), rng.randint(0, 3)))
        phi = IdempotentGaps(rng.sample(range(-6, 7), rng.randint(0, 3)))
        seen = set()
        for i in range(-3, 4):
            a = connect_idempotents(eps, phi, i)
            assert a * a.inverse() == eps.to_element()
            assert a.inverse() * a == phi.to_element()
            seen.add(a)
        assert len(seen) == 7


def test_every_pair_is_d_related():
    # single D-class: connect a's domain idempotent to b's range idempotent,
    # giving a chain a R c, c L z, z H b
    rng = random.Random(14)
    for _ in range(200):
        a, b = random_element(rng, 3, 3), random_element(rng, 3, 3)
        c = connect_idempotents(
            IdempotentGaps(a.dom_gaps()), IdempotentGaps(b.ran_gaps()), 0
        )
        z = element_from_gaps(b.dom_gaps(), b.ran_gaps(), 0)
        assert r_equiv(a, c)
        assert l_equiv(c, z)
        assert h_equiv(z, b)


# -- simplicity factorization -----------------------------------------------------------


def test_factorize_examples():
    k, x = factorize_simple(identity(), identity())
    assert k == identity() and x == identity()
    gamma, phi = shift(1), IdempotentGaps({0}).to_element()
    k, x = factorize_simple(gamma, phi)
    assert k * phi * x == gamma


def test_factorize_random():
    rng = random.Random(5)
    for _ in range(200):
        gamma = random_element(rng, 3, 3)
        phi = random_element(rng, 3, 3)
        k, x = factorize_simple(gamma, phi)
        assert k * phi * x == gamma


# -- equation solving -------------------------------------------------------------------


def test_solve_examples():
    assert solve_right(identity(), identity()) == (identity(),)
    e0 = IdempotentGaps({0}).to_element()
    assert set(solve_right(e0, e0)) == {e0, identity()}
    assert solve_right(shift(1), shift(1)) == (identity(),)


def test_solutions_satisfy_equation():
    rng = random.Random(6)
    for _ in range(60):
        a, b = random_element(rng, 2, 2), random_element(rng, 2, 2)
        for x in solve_right(a, b):
            assert a * x == b
        for x in solve_left(a, b):
            assert x * a == b


@pytest.mark.parametrize("within, cells", [("monotone", "_monotone_cells"), ("almost", "_almost_cells")])
def test_every_candidate_is_checked_by_the_full_product(monkeypatch, within, cells):
    """A planted cell offers 0, a point of ran(a) outside dom(forced); its candidate must not come back."""
    a, b = identity(), IdempotentGaps({0}).to_element()
    want = am.as_almost(b) if within == "almost" else b
    assert solve_right(a, b, within) == (want,) == solve_left(a, b, within)
    # a = id has no range gap and so no cell; the planted one sends 0 to 0, and id * id != E{0}
    monkeypatch.setattr(green, cells, lambda a, forced: [([(0, 0)], [(0, 0)])])
    with pytest.raises(AssertionError, match=r"^a solver candidate fails a \* x == b: "):
        solve_right(a, b, within)
    with pytest.raises(AssertionError, match=r"^a solver candidate fails x \* a == b: "):
        solve_left(a, b, within)
    # the forced map is checked too: a walk whose root is id instead of E{0} must not pass
    monkeypatch.setattr(green, "_extensions", lambda base, cells, pair: iter([list(identity().pieces)]))
    for solve in (solve_right, solve_left):
        with pytest.raises(AssertionError, match="^a solver candidate fails "):
            solve(a, b, within)


PLANTED_CELL_UNDER_O = """
from cofinj import green
from cofinj.core import IdempotentGaps, identity

green.{cells} = lambda a, forced: [([(0, 0)], [(0, 0)])]
print(green.solve_{side}(identity(), IdempotentGaps({{0}}).to_element(), "{within}"))
"""


@pytest.mark.parametrize("within, cells", [("monotone", "_monotone_cells"), ("almost", "_almost_cells")])
def test_candidates_are_checked_under_python_O(within, cells):
    """The planted cell of the test above still raises when asserts are compiled away, on either side."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for side, equation in (("right", "a * x == b"), ("left", "x * a == b")):
        code = PLANTED_CELL_UNDER_O.format(cells=cells, within=within, side=side)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and proc.stdout == "", side
        assert f"AssertionError: a solver candidate fails {equation}: " in proc.stderr, side


@pytest.mark.width
@pytest.mark.parametrize("width", [10**12, 2**60])
@pytest.mark.parametrize("within", ["monotone", "almost"])
def test_left_solve_reads_the_turned_cells_as_runs(monkeypatch, within, width):
    """x * a^-1 == id for a = seg[(-inf..0,+0),(1..+inf,+width)] has one solution, a, found in under 10 ms.

    The mirror of the right solve a * x == id: the one turned-around cell has
    the width-point gap of dom(a^-1) as its values and no free point, and no
    point of either side is listed.
    """
    a = parse_element(f"seg[(-inf..0,+0),(1..+inf,+{width})]")
    want = a if within == "monotone" else am.from_monotone(a)
    listed = []
    monkeypatch.setattr(green, "_run_ints", lambda runs: listed.extend(runs) or [])
    ms, got = _fastest_ms(lambda: solve_left(a.inverse(), identity(), within))
    assert got == (want,) and ms < 10, (got, ms)
    assert listed == []


def test_monotone_candidates_equal_normalized_raw():
    """Each grafted solution is what normalize makes of the forced segments plus its extra points."""
    rng = random.Random(31)
    pairs = []
    for n in range(1, 6):
        e = IdempotentGaps(range(n)).to_element()
        pairs.append((e, e))
    for _ in range(80):
        a, y = random_element(rng, 2, 2), random_element(rng, 2, 2)
        pairs.append((a, a * y))
    total = 0
    for a, b in pairs:
        forced = a.inverse() * b
        for x in solve_right(a, b):
            raw = list(forced.segments) + [(s, s, x(s) - s) for s in sorted(forced.dom_gaps()) if s in x]
            assert x.segments == normalize(raw).segments, (a, b, x)
            assert all(type(s) is Segment for s in x.segments)
            assert MonotoneElement(x.segments) == x
            total += 1
    assert total > 500


def test_solve_rejects_an_unknown_monoid():
    with pytest.raises(ValueError, match="^unknown monoid 'x'$"):
        solve_right(identity(), identity(), within="x")


@pytest.mark.parametrize("value", [3, None, "E{0}", BasicNeighborhood(identity(), {0}, "W")], ids=repr)
@pytest.mark.parametrize("solve", [solve_right, solve_left])
def test_solve_rejects_a_non_element(solve, value):
    """A non-element on either side of the equation is an InvalidElementError that names the argument."""
    e = identity()
    with pytest.raises(InvalidElementError, match="^a must be an element, got "):
        solve(value, e)
    with pytest.raises(InvalidElementError, match="^b must be an element, got "):
        solve(e, value)


@pytest.mark.parametrize("value", [3, None, "E{0}", IdempotentGaps({0}), BasicNeighborhood(identity(), {0}, "W")],
                         ids=repr)
def test_relations_factorization_and_h_class_reject_a_non_element(value):
    """A non-element argument is an InvalidElementError that names it, where it was an AttributeError."""
    e = identity()
    cases = [
        (lambda: r_equiv(value, e), "a"),
        (lambda: r_equiv(e, value), "b"),
        (lambda: l_equiv(value, e), "a"),
        (lambda: l_equiv(e, value), "b"),
        (lambda: h_equiv(value, e), "a"),
        (lambda: h_equiv(e, value), "b"),
        (lambda: factorize_simple(value, e), "gamma"),
        (lambda: factorize_simple(e, value), "phi"),
        (lambda: h_class_members(value, [0]), "elem"),
    ]
    for test, name in cases:
        with pytest.raises(InvalidElementError) as err:
            test()
        assert str(err.value) == f"{name} must be an element, got {value!r}"


@pytest.mark.parametrize("value", [3, None, "E{0}", IdempotentGaps({0}).to_element()], ids=repr)
def test_connect_idempotents_rejects_a_non_idempotent(value):
    """Either idempotent argument that is not an IdempotentGaps is an InvalidElementError that names it."""
    e = IdempotentGaps({0})
    for test, name in ((lambda: connect_idempotents(value, e, 0), "eps"), (lambda: connect_idempotents(e, value, 0), "phi")):
        with pytest.raises(InvalidElementError) as err:
            test()
        assert str(err.value) == f"{name} must be an IdempotentGaps, got {value!r}"


WIDE_GAP = 10**12


@pytest.mark.width
@pytest.mark.parametrize("offset", [0, 2**60])
@pytest.mark.parametrize("within", ["monotone", "almost"])
@pytest.mark.parametrize("solve", [solve_right, solve_left])
def test_wide_solutions_cost_their_pieces(solve, within, offset):
    """id * x == E and x * id == E for a 10^12-point gap of E have one solution, E, found in under 10 ms.

    The solution is the forced map and no cell has room for a point, so
    nothing in the solve may grow with the gap: neither the cells nor the
    order of the solutions, which is read off their pieces.  The result is
    compared by its pieces, whose repr stays short at any width.
    """
    e = parse_element(f"seg[(-inf..{offset},+0),({offset + WIDE_GAP + 1}..+inf,+0)]")
    ms, got = _fastest_ms(lambda: solve(identity(), e, within))
    cls = am.AlmostMonotoneElement if within == "almost" else MonotoneElement
    assert [(type(x), x.pieces) for x in got] == [(cls, e.pieces)]
    assert ms < 10, ms


def test_solutions_are_sorted_by_pieces_without_repeats():
    """Every solve tuple, on either side and in either monoid, is ordered by its solutions' pieces."""
    mono, almost = _solver_corpus(random.Random(24))
    cases = [(a, b, w) for a, b in mono for w in ("monotone", "almost")]
    cases += [(a, b, "almost") for a, b in almost]
    many = set()
    for a, b, within in cases:
        for solve in (solve_right, solve_left):
            sols = solve(a, b, within=within)
            # strictly increasing pieces: sorted by pieces, with no repeats
            assert all(x.pieces < y.pieces for x, y in zip(sols, sols[1:])), (solve.__name__, within, a, b)
            if len(sols) >= 3:
                many.add((solve.__name__, within))
    assert many == {(f.__name__, w) for f in (solve_right, solve_left) for w in ("monotone", "almost")}


def test_solve_left_duality():
    rng = random.Random(7)
    for _ in range(60):
        a, b = random_element(rng, 2, 2), random_element(rng, 2, 2)
        assert set(solve_left(a, b)) == {
            y.inverse() for y in solve_right(a.inverse(), b.inverse())
        }


def _tabulate(dg, rg, left, lo, hi) -> list:
    """element_from_gaps(dg, rg, left) on lo..hi, read off its gap data alone.

    The element sends the points off dg, in increasing order, onto the points
    off rg, in increasing order; lo must lie below dg and lo + left below rg,
    so that lo goes to lo + left.
    """
    table = []
    y = lo + left
    for t in range(lo, hi + 1):
        if t in dg:
            table.append(None)
            continue
        while y in rg:
            y += 1
        table.append(y)
        y += 1
    return table


def _brute_solutions(a, b):
    """Every monotone element in a bounded box, filtered by the defining equation.

    Box bounds follow from a*x == b alone: dom(x) contains ((dom b))a, so the
    domain gaps of x sit inside the range gaps of a joined with the images of
    the domain gaps of b; range gaps of x shrink those of b; the left offset
    is pinned by subtracting tail offsets.

    The equation is read pointwise, with no product: write s for span.  Every
    finite bound and image of a and b lies in [-s+2, s-2], so both are
    translations on (-inf, -s+2] and on [s-2, +inf), by offsets of size at
    most 2s-4.  A candidate x has its gaps in [-s, s] and both offsets in
    [-2s, 2s], so it is a translation on (-inf, -3s) and on (3s, +inf).  a
    sends (-inf, -5s] into (-inf, -3s) and [5s, +inf) into (3s, +inf), so a*x
    is a translation on both, and so is b: a*x == b exactly when the two
    agree on the key window [-5s, 5s], whose end points fix both tails.  a is
    monotone, so it sends the key window into [-7s, 7s], where x is
    tabulated.  At the key window's first point x acts by its left offset, so
    a candidate whose left offset misses b there is not tabulated.
    """
    span = 0
    for e in (a, b):
        for lo, hi, off in e.segments:
            for v in (lo, hi, lo + off, hi + off):
                if v not in (float("-inf"), float("inf")):
                    span = max(span, abs(v))
    span += 2
    positions = range(-span, span + 1)
    max_gaps = len(a.ran_gaps()) + len(b.dom_gaps())
    offsets = range(-2 * span, 2 * span + 1)
    key_window = range(-5 * span, 5 * span + 1)
    images = [a(t) for t in key_window]
    want = [b(t) for t in key_window]
    out = set()
    for nd in range(max_gaps + 1):
        for dg in combinations(positions, nd):
            for nr in range(len(b.ran_gaps()) + 1):
                for rg in combinations(positions, nr):
                    for left in offsets:
                        if abs(left + nr - nd) > 2 * span or images[0] + left != want[0]:
                            continue
                        table = _tabulate(dg, rg, left, -7 * span, 7 * span)
                        if [None if y is None else table[y + 7 * span] for y in images] == want:
                            out.add(element_from_gaps(dg, rg, left))
    return out


def test_solve_right_complete_against_brute_force():
    cases = [
        (identity(), identity()),
        (IdempotentGaps({0}).to_element(), IdempotentGaps({0}).to_element()),
        (IdempotentGaps({0}).to_element(), IdempotentGaps({0, 1}).to_element()),
        (A0P, A0P),
        (A0P, shift(1)),
        (shift(1), IdempotentGaps({2}).to_element() * shift(1)),
        (element_from_gaps([0], [1], 0), element_from_gaps([0], [], 1)),
        (element_from_gaps([0, 1], [0], -1), element_from_gaps([0, 1], [2], 0)),
    ]
    for a, b in cases:
        assert set(solve_right(a, b)) == _brute_solutions(a, b), (a, b)


def _brute_almost_box(bound, offs):
    """Every canonical almost-monotone element within a tiny parameter box."""
    seen = set()
    for d in range(-bound, bound + 1):
        for u in range(d + 1, bound + 2):
            for dl in range(-offs, offs + 1):
                for ur in range(-offs, offs + 1):
                    if d + dl >= u + ur:
                        continue
                    keys = list(range(d + 1, u))
                    vals = list(range(d + dl + 1, u + ur))
                    for n in range(min(len(keys), len(vals)) + 1):
                        for ks in combinations(keys, n):
                            for vs in permutations(vals, n):
                                seen.add(am.make_almost(d, dl, u, ur, dict(zip(ks, vs))))
    return seen


def test_solve_right_almost_against_exhaustive_box():
    e0 = IdempotentGaps({0}).to_element()
    swap = am.unit_recompose(am.UnitDecomposition(((0, 1), (1, 0)), 0))
    cases = [
        (am.from_monotone(e0), am.from_monotone(e0)),
        (swap, swap),
        (am.from_monotone(e0), swap),
    ]
    box = _brute_almost_box(2, 1)
    for a, b in cases:
        want = {x for x in box if am.compose_almost(a, x) == b}
        got = set(solve_right(a, b, within="almost"))
        # the box only bounds the check: solutions outside it would be missed,
        # so assert the box part matches and every solution verifies
        assert want <= got, (a, b)
        for x in got:
            assert am.compose_almost(a, x) == b


def test_monotone_solutions_embed_in_almost_solutions():
    rng = random.Random(8)
    for _ in range(30):
        a, b = random_element(rng, 2, 1), random_element(rng, 2, 1)
        mono = {am.from_monotone(x) for x in solve_right(a, b)}
        alm = set(solve_right(a, b, within="almost"))
        assert mono <= alm


# -- the one solver against both references ---------------------------------------------


def _solver_corpus(rng):
    """Monotone pairs with at most 3 gaps and a planted solution, E{0..n-1} for n <= 5,
    and random_almost pairs, random and planted."""
    mono = []
    for _ in range(40):
        a = random_element(rng, 3, 2)
        mono.append((a, a * random_element(rng, 3, 2)))
    mono += [(IdempotentGaps(range(n)).to_element(),) * 2 for n in range(1, 6)]
    almost = []
    while len(almost) < 80:
        a = am.random_almost(rng, 2, 3, 4)
        # at most 3 free points on either side keeps each solution set below a thousand
        if len(a.dom_gaps()) <= 3 and len(a.ran_gaps()) <= 3:
            almost.append((a, am.random_almost(rng, 2, 3, 4)))
            almost.append((a, am.compose_almost(a, am.random_almost(rng, 2, 3, 4))))
    return mono, almost


def _ref_solve(side, a, b, within):
    """The reference solution tuple of a*x == b (right) or x*a == b (left), sorted by pieces."""
    if within == "almost":
        ref, a, b = ref_solve_right_almost, am.as_almost(a), am.as_almost(b)
    else:
        ref = ref_solve_right_monotone
    if side == "right":
        return by_pieces(ref(a, b))
    return by_pieces(x.inverse() for x in ref(a.inverse(), b.inverse()))


def test_one_solver_matches_both_references():
    mono, almost = _solver_corpus(random.Random(12))
    sizes = {"monotone": set(), "almost": set()}
    cases = [(a, b, w) for a, b in mono for w in ("monotone", "almost")]
    cases += [(a, b, "almost") for a, b in almost]
    for a, b, within in cases:
        for side, solve in (("right", solve_right), ("left", solve_left)):
            want = _ref_solve(side, a, b, within)
            assert solve(a, b, within=within) == want, (side, within, a, b)
            sizes[within].add(min(len(want), 3))
        # by default the inputs' classes pick the monoid
        default = "monotone" if isinstance(a, MonotoneElement) and isinstance(b, MonotoneElement) else "almost"
        assert solve_right(a, b) == solve_right(a, b, within=default)
    assert sizes == {"monotone": {0, 1, 2, 3}, "almost": {0, 1, 2, 3}}
    with pytest.raises(InvalidElementError, match="monotone elements"):
        solve_right(am.almost_identity(), identity(), within="monotone")


def _differential_corpus(rng):
    """(a, b, within) triples: planted pairs for either side, drawn and built by hand.

    The hand-built ones give monotone solves with two or more cells, points
    whose pieces merge with forced pieces on both sides, and almost-monotone
    cells whose points lie in two or more runs of the forced domain gaps.
    """
    e05, e_wide = IdempotentGaps({0, 5}).to_element(), IdempotentGaps({-2, 0, 1, 4, 7}).to_element()
    mono = [(e05, e05), (e_wide, e_wide), (e05, e05 * shift(3)), (shift(-1) * e_wide, e_wide)]
    mono += [(element_from_gaps([0, 3], [1, 6], 0), element_from_gaps([0, 3, 4], [1, 6], 0))]
    for _ in range(30):
        a, y = random_element(rng, 3, 2), random_element(rng, 3, 2)
        mono += [(a, a * y), (a, y * a)]
    almost = [(am.as_almost(a), am.as_almost(b)) for a, b in mono[:4]]
    while len(almost) < 40:
        a, y = am.random_almost(rng, 2, 3, 4), am.random_almost(rng, 2, 3, 4)
        if len(a.dom_gaps()) <= 3 and len(a.ran_gaps()) <= 3:
            almost += [(a, am.compose_almost(a, y)), (a, am.compose_almost(y, a))]
    return [(a, b, w) for a, b in mono for w in ("monotone", "almost")] + [(a, b, "almost") for a, b in almost]


def test_solver_matches_the_references_on_both_sides():
    """Seeded differential test of both sides against the references, with what the tree walk must merge."""
    seen = set()
    for a, b, within in _differential_corpus(random.Random(23)):
        for side, solve in (("right", solve_right), ("left", solve_left)):
            got = solve(a, b, within=within)
            assert got == _ref_solve(side, a, b, within), (side, within, a, b)
            assert len(set(got)) == len(got), (side, within, a, b)
            forced = a.inverse() * b if side == "right" else b * a.inverse()
            runs = forced._dom_runs()
            # the forced gap runs that hold an extra point of some solution
            used = {i for x in got for i, (lo, hi) in enumerate(runs) for t in range(lo, hi + 1) if x(t) is not None}
            if len(used) >= 2:
                seen.add((side, within, "two or more gap runs"))
            for x in got:
                for lo, hi in runs:
                    for t in range(lo, hi + 1):
                        y = x(t)
                        if y is not None and x(t - 1) == y - 1 == forced(t - 1) and x(t + 1) == y + 1 == forced(t + 1):
                            seen.add((side, within, "merged on both sides"))
    kinds = ("two or more gap runs", "merged on both sides")
    assert seen == {(side, w, k) for side in ("right", "left") for w in ("monotone", "almost") for k in kinds}


@pytest.mark.parametrize("n", range(1, 6))
def test_idempotent_solve_counts_on_both_sides(n):
    """E{0..n-1} * x == E{0..n-1} and its mirror: C(2n, n) monotone solutions, sum C(n,k)^2 k! almost-monotone ones."""
    e = IdempotentGaps(range(n)).to_element()
    counts = {"monotone": comb(2 * n, n), "almost": sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))}
    for within, count in counts.items():
        for solve in (solve_right, solve_left):
            sols = solve(e, e, within=within)
            assert len(sols) == len(set(sols)) == count, (within, solve.__name__)
