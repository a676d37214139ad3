import random

import pytest

from cofinj.core import (
    IdempotentGaps,
    InvalidElementError,
    identity,
    parse_element,
    random_element,
    shift,
)
from cofinj.congruence import (
    Signature,
    mgc_equiv,
    mgc_signature,
    signature_preimage,
    unit_to_shift,
    witness_idempotent,
)
from cofinj import almost as am

from helpers import ref_witness_gaps


def test_signature_examples():
    assert mgc_signature(identity()) == Signature(0, 0)
    a0p = parse_element("seg[(-inf..0,+0),(1..+inf,+1)]")
    assert mgc_signature(a0p) == Signature(0, 1)
    for k in range(-4, 5):
        assert mgc_signature(shift(k)) == Signature(k, k)


def test_negated_signature_is_the_inverse_image():
    rng = random.Random(4)
    for _ in range(100):
        for e in (random_element(rng, 2, 3), am.random_almost(rng)):
            s = mgc_signature(e)
            assert -s == mgc_signature(e.inverse())
            assert s + -s == Signature(0, 0)


def test_signature_of_almost_elements():
    rng = random.Random(1)
    for _ in range(100):
        a = am.random_almost(rng)
        assert mgc_signature(a) == Signature(a.left_offset, a.right_offset)
        m = random_element(rng, 2, 2)
        assert mgc_signature(am.from_monotone(m)) == mgc_signature(m)


def test_signature_takes_either_class_and_rejects_other_values():
    for e in (shift(2), am.from_monotone(shift(2)), am.random_almost(3)):
        assert mgc_signature(e) == Signature(e.left_offset, e.right_offset)
    for v in (2, None, (0, 0), IdempotentGaps({0}), shift(1).pieces):
        with pytest.raises(TypeError, match="not an element"):
            mgc_signature(v)


def test_homomorphism_monotone():
    rng = random.Random(2)
    for _ in range(500):
        a, b = random_element(rng, 3, 3), random_element(rng, 3, 3)
        assert mgc_signature(a * b) == mgc_signature(a) + mgc_signature(b)


def test_homomorphism_almost():
    rng = random.Random(3)
    for _ in range(500):
        a, b = am.random_almost(rng), am.random_almost(rng)
        assert mgc_signature(am.compose_almost(a, b)) == mgc_signature(a) + mgc_signature(b)


def test_equiv_examples():
    assert mgc_equiv(identity(), IdempotentGaps({0}).to_element())
    assert not mgc_equiv(shift(1), identity())


def test_equiv_is_congruence():
    rng = random.Random(4)
    for _ in range(200):
        a, b, c = (random_element(rng, 2, 2) for _ in range(3))
        assert mgc_equiv(a, a)
        if mgc_equiv(a, b):
            assert mgc_equiv(a * c, b * c)
            assert mgc_equiv(c * a, c * b)


def test_equiv_iff_signature():
    rng = random.Random(5)
    for _ in range(300):
        a, b = random_element(rng, 3, 3), random_element(rng, 3, 3)
        assert mgc_equiv(a, b) == (mgc_signature(a) == mgc_signature(b))


def test_equiv_absorbs_idempotents():
    rng = random.Random(6)
    for _ in range(200):
        a = random_element(rng, 3, 3)
        eps = IdempotentGaps(rng.sample(range(-6, 7), rng.randint(0, 3))).to_element()
        assert mgc_equiv(a, a * eps)


def test_witness_idempotent_realizes_congruence():
    rng = random.Random(7)
    found = 0
    for _ in range(400):
        a, b = random_element(rng, 2, 2), random_element(rng, 2, 2)
        if not mgc_equiv(a, b):
            with pytest.raises(InvalidElementError):
                witness_idempotent(a, b)
            continue
        found += 1
        e = witness_idempotent(a, b)
        assert e.is_idempotent()
        assert a * e == b * e
    assert found > 10


def test_witness_idempotent_matches_point_loop():
    """Gaps from clipped pieces agree with calling both maps at every window point."""
    rng = random.Random(8)
    pairs = []
    for _ in range(150):
        a = am.random_almost(rng, max_offset=3, window=8, max_middle=8)
        eps = IdempotentGaps(rng.sample(range(-9, 10), rng.randint(0, 4))).to_element()
        pairs.append((a, am.compose_almost(eps, a)))
        m = random_element(rng, 3, 3)
        pairs.append((m, m * eps))
        pairs.append((am.from_monotone(m), eps * m))
        k = rng.randint(-3, 3)
        pairs.append((shift(k), am.make_almost(-1, k, 2, k, {0: k + 1, 1: k})))
        pairs.append((shift(k), am.from_monotone(shift(k))))
    # both windows far out: the shared window stays narrow, the values are wide
    x = am.make_almost(-2, 0, 3, 0, {-1: 1, 1: -1})
    for k in (10**6, 2**60):
        for eps in (IdempotentGaps({0}).to_element(), IdempotentGaps({-2, 2}).to_element()):
            pairs.append((shift(k) * x * shift(-k), shift(k) * eps * x * shift(-k)))
            pairs.append((shift(k) * x, shift(k) * eps * x))
    for a, b in pairs:
        assert mgc_equiv(a, b)
        want = IdempotentGaps(ref_witness_gaps(a, b)).to_element()
        assert witness_idempotent(a, b) == want, (a, b)
        assert witness_idempotent(b, a) == want, (a, b)


def test_witness_idempotent_clips_only_the_tails():
    """Single-piece, one-sided and 2^60-offset pairs against the point loop.

    A single piece is both tails; a map whose window lies at one end of the
    shared window has only one tail reaching into it.
    """
    rng = random.Random(9)
    pairs = []
    for k in (0, -3, 2**60, -(2**60)):
        u = shift(k)
        pairs.append((u, u))
        for _ in range(20):
            left = IdempotentGaps(rng.sample(range(-30, -10), rng.randint(1, 3))).to_element()
            right = IdempotentGaps(rng.sample(range(10, 30), rng.randint(1, 3))).to_element()
            x = am.random_almost(rng, max_offset=0, window=6, max_middle=5)
            pairs.append((u, right * u))
            pairs.append((left * u, u))
            pairs.append((left * u, right * u))
            pairs.append((am.compose_almost(left, am.compose_almost(x, u)), right * u))
            pairs.append((am.compose_almost(x, u), am.compose_almost(am.compose_almost(right, x), u)))
    for a, b in pairs:
        assert mgc_equiv(a, b)
        want = IdempotentGaps(ref_witness_gaps(a, b)).to_element()
        assert witness_idempotent(a, b) == want, (a, b)
        assert witness_idempotent(b, a) == want, (a, b)


def test_unit_to_shift():
    assert unit_to_shift(identity()) == 0
    assert unit_to_shift(shift(-4)) == -4
    assert unit_to_shift(shift(2) * shift(3)) == 5
    with pytest.raises(InvalidElementError):
        unit_to_shift(IdempotentGaps({0}).to_element())


def test_unit_to_shift_is_additive_bijection():
    seen = set()
    for k in range(-10, 11):
        u = shift(k)
        assert unit_to_shift(u) == k
        seen.add(u)
    assert len(seen) == 21


def test_preimage_examples():
    assert signature_preimage(Signature(0, 0)) == identity()
    assert signature_preimage((3, 3)) == shift(3)
    assert signature_preimage((0, 1)) == parse_element("seg[(-inf..0,+0),(1..+inf,+1)]")


def test_preimage_round_trips_on_grid():
    for a in range(-4, 5):
        for b in range(-4, 5):
            e = signature_preimage((a, b))
            assert mgc_signature(e) == Signature(a, b)
