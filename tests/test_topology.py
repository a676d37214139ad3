import random

import pytest

from cofinj.core import (
    IdempotentGaps,
    InvalidElementError,
    _PieceMap,
    identity,
    parse_element,
    random_element,
    shift,
)
from cofinj.green import h_class_members
from cofinj.topology import (
    BasicNeighborhood,
    audit_inverse_cover,
    audit_product_cover,
    audit_separate,
    inverse_cover,
    member,
    product_cover,
    sample_member,
    separate,
)
from cofinj import almost as am

A0P = parse_element("seg[(-inf..0,+0),(1..+inf,+1)]")


# -- membership ---------------------------------------------------------------------


def test_member_examples():
    for a in (identity(), A0P, shift(2)):
        assert member(BasicNeighborhood(a, (), "W"), a)
        assert member(BasicNeighborhood(a, (), "H"), a)
    assert not member(BasicNeighborhood(identity(), {0}, "W"), IdempotentGaps({0}).to_element())
    assert member(BasicNeighborhood(identity(), (), "W"), IdempotentGaps({5}).to_element())


def test_neighborhood_validates_pins():
    with pytest.raises(InvalidElementError):
        BasicNeighborhood(IdempotentGaps({0}).to_element(), {0}, "W")
    with pytest.raises(InvalidElementError):
        BasicNeighborhood(identity(), {0}, "X")


def test_neighborhood_checks_its_center():
    for center in (5, None, "id", IdempotentGaps({0}), shift(1).pieces):
        with pytest.raises(InvalidElementError) as err:
            BasicNeighborhood(center, ())
        assert str(err.value) == f"center must be an element, got {center!r}"
    # the center is checked before the pins
    with pytest.raises(InvalidElementError, match="center must be an element, got None"):
        BasicNeighborhood(None, [1])


def test_member_and_separate_check_their_elements():
    nb = BasicNeighborhood(identity(), ())
    for v in (5, None, "id", IdempotentGaps({0}), shift(1).pieces):
        for test in (lambda: v in nb, lambda: member(nb, v)):
            with pytest.raises(InvalidElementError) as err:
                test()
            assert str(err.value) == f"member must be an element, got {v!r}"
        for test in (lambda: member(v, identity()), lambda: member(v, v)):
            with pytest.raises(InvalidElementError) as err:
                test()
            assert str(err.value) == f"member's nbhd must be a neighborhood, got {v!r}"
        for args in ((identity(), v), (v, identity()), (v, v)):
            with pytest.raises(InvalidElementError) as err:
                separate(*args)
            assert str(err.value) == f"each argument of separate must be an element, got {v!r}"


def test_covers_and_sampling_check_their_arguments():
    nb = BasicNeighborhood(identity(), ())
    rng = random.Random(0)
    # a neighborhood given where an element is expected, too
    for v in (5, None, "id", nb):
        # each element is checked before the pins, which are bad here as well
        cases = [
            (lambda: product_cover(v, identity(), [True]), "product_cover's a"),
            (lambda: product_cover(identity(), v, [True]), "product_cover's b"),
            (lambda: product_cover(v, v, None), "product_cover's a"),
            (lambda: audit_product_cover(identity(), v, [], rng), "product_cover's b"),
            (lambda: inverse_cover(v, [True]), "inverse_cover's g"),
            (lambda: audit_inverse_cover(v, [], rng), "inverse_cover's g"),
        ]
        for test, name in cases:
            with pytest.raises(InvalidElementError) as err:
                test()
            assert str(err.value) == f"{name} must be an element, got {v!r}"
    for v in (5, None, "id", identity()):
        with pytest.raises(InvalidElementError) as err:
            sample_member(v, rng)
        assert str(err.value) == f"sample_member's nbhd must be a neighborhood, got {v!r}"


def test_neighborhoods_are_immutable():
    nb = BasicNeighborhood(identity(), {0})
    for name in ("center", "pins", "flavor", "_draw"):
        with pytest.raises(AttributeError, match="BasicNeighborhood is immutable"):
            setattr(nb, name, None)
    assert (nb.center, nb.pins, nb.flavor) == (identity(), {0}, "W")


def test_neighborhoods_compare_their_centers_as_maps():
    rng = random.Random(12)
    for flavor in ("W", "H"):
        for _ in range(60):
            c = random_element(rng, 2, 2)
            pins = frozenset([x for x in range(-6, 7) if x in c][: rng.randint(0, 2)])
            mono = BasicNeighborhood(c, pins, flavor)
            almost = BasicNeighborhood(am.from_monotone(c), pins, flavor)
            assert mono == almost and almost == mono
            assert hash(mono) == hash(almost) == hash((flavor, pins, c))
            assert mono.to_text() == almost.to_text()
            assert mono != BasicNeighborhood(c * shift(1), pins, flavor)


def test_neighborhood_text_does_not_rely_on_repr(monkeypatch):
    nbs = [BasicNeighborhood(A0P, [0], "W"), BasicNeighborhood(am.from_monotone(A0P), [0, 3], "H")]
    want = ["nbhd(seg[(-inf..0,+0),(1..+inf,+1)]; 0)", "nbhd_h(seg[(-inf..0,+0),(1..+inf,+1)]; 0, 3)"]
    assert [nb.to_text() for nb in nbs] == want
    monkeypatch.setattr(_PieceMap, "__repr__", lambda self: "<elided>")
    assert [nb.to_text() for nb in nbs] == want


PIN_CHECKS = {
    "nbhd": lambda pins: BasicNeighborhood(identity(), pins),
    "product_cover": lambda pins: product_cover(identity(), identity(), pins),
    "inverse_cover": lambda pins: inverse_cover(identity(), pins),
}


@pytest.mark.parametrize("check", PIN_CHECKS.values(), ids=PIN_CHECKS.keys())
@pytest.mark.parametrize(
    "pins,message",
    [
        ([1.5], "pins must be integers, got 1.5"),
        ([True], "pins must be integers, got True"),
        (["a"], "pins must be integers, got 'a'"),
        (5, "pins must be an iterable of integers, got 5"),
        (None, "pins must be an iterable of integers, got None"),
        ([[1]], "pins must be an iterable of integers, got [[1]]"),
    ],
)
def test_every_pin_set_is_checked_alike(check, pins, message):
    with pytest.raises(InvalidElementError) as err:
        check(pins)
    assert str(err.value) == message


def test_pin_checks_keep_their_domain_messages():
    e0 = IdempotentGaps({0}).to_element()
    calls = [
        (lambda: BasicNeighborhood(e0, [0]), "pin 0 is outside the center's domain"),
        (lambda: product_cover(identity(), e0, [0]), "pin 0 is outside dom of the product"),
        (lambda: inverse_cover(e0, [0]), "pin 0 is outside the domain"),
    ]
    for call, message in calls:
        with pytest.raises(InvalidElementError) as err:
            call()
        assert str(err.value) == message
    assert inverse_cover(identity(), [1]) == (frozenset({1}), frozenset({1}))
    assert product_cover(identity(), identity(), [1]) == (frozenset({1}), frozenset({1}))


def test_pin_filtration():
    rng = random.Random(1)
    for _ in range(100):
        a = random_element(rng, 2, 2)
        dom = [x for x in range(-6, 7) if x in a]
        big = set(rng.sample(dom, 3))
        small = set(rng.sample(sorted(big), 2))
        d = sample_member(BasicNeighborhood(a, big, "W"), rng)
        assert member(BasicNeighborhood(a, small, "W"), d)


def test_h_refines_w():
    rng = random.Random(2)
    for _ in range(100):
        c = am.random_almost(rng)
        pins = [x for x in range(-8, 9) if x in c][:2]
        d = sample_member(BasicNeighborhood(c, pins, "H"), rng)
        assert member(BasicNeighborhood(c, pins, "W"), d)


# -- product cover -----------------------------------------------------------------


def test_product_cover_examples():
    assert product_cover(identity(), identity(), {0}) == (frozenset({0}), frozenset({0}))
    # the second factor misses 0, so the -2 preimage under shift(2) must be pinned too
    got = product_cover(shift(2), IdempotentGaps({0}).to_element(), {1})
    assert got == (frozenset({-2, 1}), frozenset({3}))


def test_product_cover_rejects_bad_pins():
    with pytest.raises(InvalidElementError):
        product_cover(identity(), IdempotentGaps({0}).to_element(), {0})


def test_unpinned_escape_point_breaks_containment():
    # with the escape preimage left unpinned, members can re-route it into the
    # right factor's domain and the product's domain grows past the target's
    g1 = parse_element("seg[(-inf..0,-2),(1..+inf,+0)]")
    g2 = IdempotentGaps({0}).to_element()
    assert member(BasicNeighborhood(identity(), {3}, "W"), g1)
    assert member(BasicNeighborhood(g2, {3}, "W"), g2)
    assert not member(BasicNeighborhood(g2, {3}, "W"), g1 * g2)
    f1, f2 = product_cover(identity(), g2, {3})
    assert not member(BasicNeighborhood(identity(), f1, "W"), g1)


def test_product_cover_audits():
    rng = random.Random(3)
    for _ in range(40):
        a = random_element(rng, 2, 2)
        b = random_element(rng, 2, 2)
        g = a * b
        dom = [x for x in range(-8, 9) if x in g]
        pins = set(rng.sample(dom, rng.randint(0, 3)))
        assert audit_product_cover(a, b, pins, rng, samples=8)


def test_product_cover_audits_almost():
    rng = random.Random(4)
    for _ in range(25):
        a = am.random_almost(rng)
        b = am.random_almost(rng)
        g = am.compose_almost(a, b)
        dom = [x for x in range(-10, 11) if x in g]
        pins = set(rng.sample(dom, min(2, len(dom))))
        assert audit_product_cover(a, b, pins, rng, samples=6)


# -- inverse cover -----------------------------------------------------------------


def test_inverse_cover_examples():
    assert inverse_cover(identity(), {0}) == (frozenset({0}), frozenset({0}))
    # range gap 1 of the step map forces pinning its bracketing points 0 and 1
    assert inverse_cover(A0P, {5}) == (frozenset({0, 1, 5}), frozenset({0, 2, 6}))


def test_inverse_cover_audits():
    rng = random.Random(5)
    for _ in range(40):
        g = random_element(rng, 2, 2)
        dom = [x for x in range(-8, 9) if x in g]
        pins = set(rng.sample(dom, rng.randint(0, 2)))
        assert audit_inverse_cover(g, pins, rng, samples=8)


# -- separation ---------------------------------------------------------------------


def test_separate_examples():
    assert separate(shift(1), identity()) == (frozenset({0}), frozenset({0}))
    assert separate(IdempotentGaps({0}).to_element(), identity()) == (frozenset(), frozenset({0}))
    with pytest.raises(InvalidElementError):
        separate(identity(), identity())
    rng = random.Random(13)
    for _ in range(50):
        a = random_element(rng, 2, 2)
        for x, y in ((a, am.from_monotone(a)), (am.from_monotone(a), a)):
            with pytest.raises(InvalidElementError, match="cannot separate an element from itself"):
                separate(x, y)


def test_separate_audits():
    rng = random.Random(6)
    done = 0
    while done < 40:
        a = random_element(rng, 2, 2)
        b = random_element(rng, 2, 2)
        if a == b:
            continue
        done += 1
        assert audit_separate(a, b, rng, samples=6)


# -- H-flavor discreteness on the monotone submonoid ------------------------------------


def test_h_neighborhood_with_pin_is_singleton_among_monotone():
    rng = random.Random(7)
    for _ in range(100):
        a = random_element(rng, 3, 3)
        dom = [x for x in range(-8, 9) if x in a]
        pin = rng.choice(dom)
        nb = BasicNeighborhood(a, {pin}, "H")
        family = h_class_members(a, range(a.left_offset - 6, a.left_offset + 7))
        assert [d for d in family if member(nb, d)] == [a]


def test_h_sampler_respects_neighborhood_and_reaches_beyond_center():
    rng = random.Random(8)
    seen_non_center = False
    for _ in range(60):
        c = am.random_almost(rng)
        pins = [x for x in range(-6, 7) if x in c][:1]
        nb = BasicNeighborhood(c, pins, "H")
        d = sample_member(nb, rng)
        assert member(nb, d)
        if am.canonicalize(d) != am.canonicalize(c):
            seen_non_center = True
    assert seen_non_center
