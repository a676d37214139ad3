"""Monotone W draws: their support, their cost at any width, and the audits built on them.

A monotone W draw cuts the center's domain runs and gives each run left one
translation, in time that follows the pieces, pins and cuts, never the
widths.  Three things are checked here:

* Support.  Around id, E{0}, shift(1) and seg[(-inf..0,+0),(3..+inf,+0)],
  with no pin and with pin 0, helpers enumerates by brute force every member
  that equals the center outside [-2, 2].  For each one it builds outcomes
  of the draw's random primitives under which the draw returns it; the draw
  replays them and must return that member, so each has positive
  probability.  Seeded draws must be members, and a seeded draw that equals
  the center outside the box must be an enumerated one.
* Width.  At 10^12-wide gaps and 2^60 offsets a draw takes under 1 ms and
  each audit under 10 ms, fastest of 3.  Results are compared by their
  pieces: the text of such an element is as long as its widths.
* Strength.  Three planted faults in the certificates, each caught by its
  audit at the default 20 samples on every instance of a fixed corpus.
"""

import random
from itertools import islice

import pytest

from cofinj import topology
from cofinj.core import (
    IdempotentGaps,
    _overlaps,
    identity,
    parse_element,
    random_element,
    shift,
)
from cofinj.topology import BasicNeighborhood, sample_member

from helpers import _fastest_ms, assert_w_member, equal_outside, ref_box_members, ref_w_monotone_script

BOX = 2
CENTERS = [
    ("id", identity()),
    ("E{0}", IdempotentGaps({0}).to_element()),
    ("shift(1)", shift(1)),
    ("E{1,2}", parse_element("seg[(-inf..0,+0),(3..+inf,+0)]")),
]
CASES = [(name, c, pins) for name, c in CENTERS for pins in ((), (0,)) if all(p in c for p in pins)]


class _Replay:
    """An rng whose bits and slack shares come from a script; the draw's other primitives are patched alike."""

    def __init__(self, bits, shares):
        self.bits, self.shares = list(bits), list(shares)

    def getrandbits(self, k):
        want, value = self.bits.pop(0)
        assert k == want and 0 <= value < 1 << k
        return value

    def randrange(self, n):
        share = self.shares.pop(0)
        assert 0 <= share < n
        return share


def _replay(monkeypatch, nbhd, script):
    """The draw under the script's outcomes; every outcome must be used up."""
    stream, lengths = iter(script["stream"]), iter(script["lengths"])
    assert all(k >= 0 for k in script["stream"] + script["lengths"])
    rng = _Replay(script["bits"], script["shares"])
    with monkeypatch.context() as m:
        m.setattr(topology, "_geometric_stream", lambda _: stream)
        m.setattr(topology, "_cut_length", lambda _: next(lengths))
        got = sample_member(nbhd, rng)
    assert next(stream, None) is None and next(lengths, None) is None
    assert not rng.bits and not rng.shares
    return got


@pytest.mark.parametrize("name, c, pins", CASES, ids=[f"{n}-{list(p)}" for n, _, p in CASES])
def test_every_box_member_is_a_possible_draw(monkeypatch, name, c, pins):
    members = ref_box_members(c, pins, BOX)
    assert c in members
    nbhd = BasicNeighborhood(c, pins)
    for x in members:
        assert_w_member(nbhd, x)
        assert _replay(monkeypatch, nbhd, ref_w_monotone_script(c, pins, x)).pieces == x.pieces


@pytest.mark.parametrize("name, c, pins", CASES, ids=[f"{n}-{list(p)}" for n, _, p in CASES])
def test_seeded_draws_are_members(name, c, pins):
    members = ref_box_members(c, pins, BOX)
    nbhd = BasicNeighborhood(c, pins)
    rng = random.Random(len(members))
    inside = set()
    for _ in range(400):
        x = sample_member(nbhd, rng)
        assert_w_member(nbhd, x)
        if equal_outside(x, c, BOX):
            assert x in members
            inside.add(x)
    assert c in inside


def test_a_draw_may_leave_any_gap_past_a_pin(monkeypatch):
    """The old window walk stepped 1 or 2 past an outer pin's value; x steps 6 past it."""
    c, x = identity(), parse_element("seg[(-inf..0,+0),(1..+inf,+5)]")
    nbhd = BasicNeighborhood(c, (0,))
    assert_w_member(nbhd, x)
    assert _replay(monkeypatch, nbhd, ref_w_monotone_script(c, (0,), x)).pieces == x.pieces


# -- width ------------------------------------------------------------------------------

WIDE = [10**12, 2**60]


@pytest.mark.width
@pytest.mark.parametrize("k", WIDE)
def test_draws_cost_their_pieces_not_their_widths(k):
    jump = parse_element(f"seg[(-inf..0,+0),(1..+inf,+{k})]")
    gap = parse_element(f"seg[(-inf..0,+0),({k}..+inf,+0)]")
    for c, pins in ((jump, ()), (jump, (0, 1)), (gap, ()), (gap, (0,)), (gap, (-5, 0, k, k + 3))):
        nbhd = BasicNeighborhood(c, pins)
        rng = random.Random(k % 97)
        sample_member(nbhd, rng)  # builds the plan
        for _ in range(5):
            best, x = _fastest_ms(lambda: sample_member(nbhd, rng))
            assert best < 1, (c.pieces, pins, best)
            assert_w_member(nbhd, x)
            assert len(x.pieces) < 40


@pytest.mark.width
@pytest.mark.parametrize("k", WIDE)
def test_audits_at_any_width(k):
    a = parse_element(f"seg[(-inf..0,+0),(1..+inf,+{k})]")
    calls = [
        (topology.audit_separate, (a, a * shift(1))),
        (topology.audit_inverse_cover, (a, {0})),
        (topology.audit_product_cover, (a, a, {0})),
    ]
    for audit, args in calls:
        best, verdict = _fastest_ms(lambda: audit(*args, random.Random(0)))
        assert verdict is True
        assert best < 10, (audit.__name__, best)


# -- planted faults ---------------------------------------------------------------------
#
# Each fault returns a certificate that fails: for every instance below a
# member of the certified set escapes the target, so the audit must report
# a failure.  The corpus is the first instances, in a fixed seeded stream of
# monotone pairs with at most two gaps, on which the fault changes the
# certificate.


def _pairs(seed):
    rng = random.Random(seed)
    while True:
        yield random_element(rng, 2, 2), random_element(rng, 2, 2)


def _without_escapes(a, b, pins):
    f1, f2 = ORIGINAL["product_cover"](a, b, pins)
    return frozenset(pins), f2


def _one_bracket_less(g, pins):
    src, _ = ORIGINAL["inverse_cover"](g, pins)
    src = src - {max(src - frozenset(pins))}
    return src, frozenset(map(g, src))


def _where_they_agree(a, b):
    x = topology._nearest_zero((lo, hi) for lo, hi, p, q in _overlaps(a.pieces, b.pieces) if p[2] == q[2])
    return frozenset({x}), frozenset({x})


ORIGINAL = {name: getattr(topology, name) for name in ("product_cover", "inverse_cover", "separate")}
FAULTS = {
    # an unpinned escape can be sent into dom b, growing the product's domain
    "product_cover": (
        _without_escapes,
        topology.audit_product_cover,
        lambda: ((a, b, ()) for a, b in _pairs(41) if ORIGINAL["product_cover"](a, b, ())[0]),
    ),
    # an unpinned bracket point can be sent into the range gap next to it
    "inverse_cover": (
        _one_bracket_less,
        topology.audit_inverse_cover,
        lambda: ((a, ()) for a, _ in _pairs(42) if a._ran_runs()),
    ),
    # a map with a's value at the pin and a domain inside both lies in both sets
    "separate": (
        _where_they_agree,
        topology.audit_separate,
        lambda: ((a, b) for a, b in _pairs(43) if a != b and any(p[2] == q[2] for *_, p, q in _overlaps(a.pieces, b.pieces))),
    ),
}
CORPUS = 10


@pytest.mark.parametrize("name", FAULTS)
def test_planted_faults_are_caught(monkeypatch, name):
    fault, audit, instances = FAULTS[name]
    corpus = list(islice(instances(), CORPUS))
    for args in corpus:
        assert audit(*args, random.Random(0)), args
    monkeypatch.setattr(topology, name, fault)
    for i, args in enumerate(corpus):
        assert not audit(*args, random.Random(i)), (name, args)
