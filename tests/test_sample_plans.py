"""Planned member draws against the point-by-point samplers in helpers, and copies and pickles.

``sample_member`` builds a plan once per neighborhood and then only draws.
Every draw must consume the rng exactly as the point-by-point samplers kept
in helpers do and return the same member, on monotone, almost-monotone and
total-translation centers with 0 to 3 pins, for both flavors; so must every
audit built on it.  A monotone W draw works on runs and pieces: its
reference makes the same rng calls in the same order, applies each cut and
each translation one point at a time over a box, and normalizes.  The
almost-monotone W and the H references are the window walks.
"""

import copy
import pickle
import random

import pytest

from cofinj import _kernel
from cofinj import almost as am
from cofinj import topology
from cofinj.core import (
    NEG_INF,
    POS_INF,
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    normalize,
    parse_element,
    random_element,
    shift,
)
from cofinj.topology import BasicNeighborhood, sample_member

from helpers import _Forged, ref_sample_member

DRAWS = 20


CENTERS = [random_element(random.Random(s), 3, 3) for s in range(6)]
CENTERS += [am.random_almost(s) for s in range(6)]
CENTERS += [shift(0), shift(3), shift(-5), am.from_monotone(shift(4)), am.from_monotone(shift(-2))]
# a wide jump and a wide gap stretch the window past the small corpus
CENTERS += [parse_element("seg[(-inf..0,+0),(1..+inf,+30)]"), parse_element("seg[(-inf..-20,+0),(3..+inf,+0)]")]


def _neighborhood_args(c, rng):
    """(pins, flavor) for 0 to 3 pins from the center's domain in [-8, 8], in both flavors."""
    dom = [x for x in range(-8, 9) if x in c]
    return [(frozenset(rng.sample(dom, n)), flavor) for n in range(4) for flavor in ("W", "H")]


@pytest.mark.parametrize("i", range(len(CENTERS)))
def test_planned_draws_match_the_point_walk(i):
    c = CENTERS[i]
    for j, (pins, flavor) in enumerate(_neighborhood_args(c, random.Random(i))):
        reused = BasicNeighborhood(c, pins, flavor)
        seed = 100 * i + j
        r_reused, r_fresh, r_ref = random.Random(seed), random.Random(seed), random.Random(seed)
        for _ in range(DRAWS):
            want = ref_sample_member(reused, r_ref)
            got = sample_member(reused, r_reused)
            assert type(got) is type(want) and got == want, (c, sorted(pins), flavor)
            assert sample_member(BasicNeighborhood(c, pins, flavor), r_fresh) == want
        assert r_reused.getstate() == r_ref.getstate()
        assert r_fresh.getstate() == r_ref.getstate()


def _audit_calls(rng):
    """(audit, args, holds) over monotone and almost-monotone pairs with 0 to 2 pins.

    ``holds`` is False for inverse covers of almost-monotone elements: tau_W
    is a topology on the monotone monoid, and there members may send an
    unpinned point into a range gap, so those audits can fail.
    """
    for k in range(16):
        mono = k % 2 == 0
        a = random_element(rng, 2, 2) if mono else am.random_almost(rng)
        b = random_element(rng, 2, 2) if mono else am.random_almost(rng)
        g = a * b
        dom = [x for x in range(-8, 9) if x in g]
        yield topology.audit_product_cover, (a, b, frozenset(rng.sample(dom, min(len(dom), k % 3)))), True
        pins = frozenset(rng.sample([x for x in range(-8, 9) if x in a], k % 3))
        yield topology.audit_inverse_cover, (a, pins), mono
        if a != b:
            yield topology.audit_separate, (a, b), True


def _verdicts(monkeypatch, sampler):
    """Each audit's verdict and the rng state after it, drawing members with ``sampler``."""
    with monkeypatch.context() as m:
        m.setattr(topology, "sample_member", sampler)
        out = []
        for audit, args, holds in _audit_calls(random.Random(23)):
            rng = random.Random(len(out))
            out.append((audit(*args, rng, samples=6), rng.getstate(), holds))
        return out


def test_audits_keep_their_verdicts_and_rng_use(monkeypatch):
    got = _verdicts(monkeypatch, sample_member)
    assert got == _verdicts(monkeypatch, ref_sample_member)
    assert all(verdict for verdict, _, holds in got if holds)
    assert not all(verdict for verdict, _, holds in got if not holds)


def _sampler_element(raw):
    # how a monotone W draw builds its member from (lo, hi, offset) pieces with distinct starts
    return MonotoneElement(_kernel.merge_pieces(sorted(raw)))


def test_sampler_output_is_checked_like_normalize(monkeypatch):
    good = [(5, POS_INF, 2), (NEG_INF, -4, 0), (2, 2, 1), (0, 0, 1), (1, 1, 1)]
    assert _sampler_element(good).segments == normalize(good).segments
    # an image out of order: 0 lands past the image of 4, and 1 below the image of 0
    bads = ([(NEG_INF, -4, 0), (0, 0, 9), (4, POS_INF, 2)], [(NEG_INF, 0, 0), (1, 1, -2), (2, POS_INF, 0)])
    for bad in bads:
        with pytest.raises(InvalidElementError):
            normalize(bad)
        with pytest.raises(InvalidElementError):
            _sampler_element(bad)
    # a real draw checks what it builds: handed these pieces, it raises
    for bad in bads:
        nb = BasicNeighborhood(shift(0), [0])
        monkeypatch.setattr(_kernel, "merge_pieces", lambda raw, bad=bad: bad)
        with pytest.raises(InvalidElementError):
            sample_member(nb, random.Random(0))


# -- copy and pickle ---------------------------------------------------------------


def _round_trips(obj):
    return [copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]


def test_elements_and_idempotents_copy_and_pickle():
    rng = random.Random(29)
    objs = [random_element(rng, 3, 3) for _ in range(5)] + [am.random_almost(rng) for _ in range(5)]
    objs += [shift(2**60), am.from_monotone(shift(-(2**60))), parse_element("seg[(-inf..0,+0),(1..+inf,+1000000000000)]")]
    objs += [IdempotentGaps(), IdempotentGaps({-3, 0, 7})]
    for obj in objs:
        for twin in _round_trips(obj):
            assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)


def test_neighborhoods_copy_and_pickle_without_their_plan():
    rng = random.Random(31)
    for c in CENTERS:
        pins, flavor = rng.choice(_neighborhood_args(c, rng))
        nb = BasicNeighborhood(c, pins, flavor)
        sample_member(nb, random.Random(0))
        for twin in _round_trips(nb):
            assert twin == nb and hash(twin) == hash(nb) and twin.flavor == flavor
            assert twin._draw is None
            seed = rng.random()
            assert sample_member(twin, random.Random(seed)) == sample_member(nb, random.Random(seed))


def test_unpickling_validates():
    forged = [
        (MonotoneElement, (((NEG_INF, 0, 0), (0, POS_INF, 1)),)),
        (am.AlmostMonotoneElement, (0, 0, 3, 0, {1: 1})),
        (IdempotentGaps, ({"x"},)),
        (BasicNeighborhood, (IdempotentGaps({0}).to_element(), frozenset({0}), "W")),
    ]
    for cls, args in forged:
        with pytest.raises(InvalidElementError):
            pickle.loads(pickle.dumps(_Forged(cls, args)))
