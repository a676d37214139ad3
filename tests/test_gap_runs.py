"""Gap runs against the point-walk references in helpers.

Green's relations, pin-neighborhood membership, the solvers' precondition and
the three topology certificates read gap sets as sorted maximal (lo, hi) runs
and elements as translation pieces.  Each result here must equal the
frozenset and point-by-point version kept in helpers, on monotone,
almost-monotone and mixed pairs, including 70-segment elements, 2^60
offsets and pairs that are the same map in two representations.
"""

import contextlib
import io
import random
import time

import pytest

from cofinj import almost as am
from cofinj import cli
from cofinj.core import (
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    _runs_within,
    element_from_gaps,
    identity,
    parse_element,
    random_element,
    shift,
)
from cofinj.green import h_equiv, l_equiv, r_equiv, solve_left, solve_right
from cofinj.topology import BasicNeighborhood, inverse_cover, member, product_cover, separate

from helpers import (
    expand_runs,
    ref_dom_within,
    ref_h_equiv,
    ref_inverse_cover,
    ref_l_equiv,
    ref_member,
    ref_product_cover,
    ref_r_equiv,
    ref_separate,
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


def _wide_domain(e):
    """x -> e(x - 2^60): the domain moves out by 2^60, built from e's data directly."""
    if isinstance(e, MonotoneElement):
        return MonotoneElement([(lo + WIDE, hi + WIDE, o - WIDE) for lo, hi, o in e.segments])
    return am.make_almost(
        e.left_end + WIDE,
        e.left_offset - WIDE,
        e.right_start + WIDE,
        e.right_offset - WIDE,
        {k + WIDE: v for k, v in e.middle.items()},
    )


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


# -- cost that does not grow with the integers ----------------------------------------------

BIG = "seg[(-inf..0,+0),(1..+inf,+1000000000000)]"


def _fastest_ms(fn):
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn()
        dt = (time.perf_counter() - t0) * 1e3
        best = dt if best is None else min(best, dt)
    return best, result


def _eval(text):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["--eval", text])
    assert rc == 0
    return out.getvalue().strip()


def test_relations_membership_and_certificates_ignore_gap_width():
    """A 10^12-wide range gap costs what a narrow one costs.

    Each operation, called directly and, where the expression language has a
    form for it, through the CLI, must take under 10 ms (fastest of three
    calls).  inverse_cover and separate have no form.  audit_sep is left out:
    its sampler draws members point by point across the gap, and those
    seeded draws are part of the CLI output.
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
    ]
    via_cli = [
        (f"{BIG} ~R {BIG}^-1", "false"),
        (f"{BIG} ~L {BIG}^-1", "false"),
        (f"{BIG} ~H {BIG}^-1", "false"),
        (f"in(nbhd({BIG}; 0), {BIG}^-1)", "true"),
        (f"in(nbhd_h({BIG}; 0), {BIG}^-1)", "false"),
        (f"cover({BIG}, {BIG}^-1; 0)", "({0}, {0})"),
    ]
    for fn, want in direct + [(lambda t=t: _eval(t), w) for t, w in via_cli]:
        ms, got = _fastest_ms(fn)
        assert got == want
        assert ms < 10, f"{ms:.1f} ms"
