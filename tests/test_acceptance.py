"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every assertion is exact (zero tolerance); randomized parts are seeded.
"""

import functools
import random
from collections import defaultdict
from itertools import combinations, compress, product
from operator import itemgetter

from cofinj.bicyclic import BicyclicWord, eval_word, normal_form
from cofinj.congruence import Signature, mgc_signature, signature_preimage
from cofinj.core import (
    IdempotentGaps,
    element_from_gaps,
    identity,
    random_element,
)
from cofinj.green import (
    connect_idempotents,
    factorize_simple,
    h_class_members,
    solve_right,
)
from cofinj.topology import (
    BasicNeighborhood,
    audit_inverse_cover,
    audit_product_cover,
    audit_separate,
    member,
)
from cofinj import almost as am

from helpers import brute_minimal_exceptions


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            try:
                fn(*args, **kw)
            except BaseException:
                print(f"\nACCEPTANCE FAIL {num:2d}: {title}")
                raise
            print(f"\nACCEPTANCE PASS {num:2d}: {title}")

        return wrapper

    return deco


@criterion(1, "bicyclic defining relation on every copy, exact")
def test_criterion_1_bicyclic_relation():
    for n in range(-5, 6):
        assert eval_word(BicyclicWord(n, "+", "pq")) == identity()
        assert eval_word(BicyclicWord(n, "+", "qp")) == IdempotentGaps({n + 1}).to_element()
        assert eval_word(BicyclicWord(n, "-", "pq")) == identity()
        assert eval_word(BicyclicWord(n, "-", "qp")) == IdempotentGaps({n - 1}).to_element()


@criterion(2, "bicyclic faithfulness for all words of length <= 10")
def test_criterion_2_bicyclic_faithfulness():
    by_nf = {}
    total = 0
    for length in range(11):
        for letters in map("".join, product("pq", repeat=length)):
            total += 1
            nf = normal_form(letters)
            el = eval_word(BicyclicWord(0, "+", letters))
            if nf in by_nf:
                assert by_nf[nf] == el, letters
            else:
                by_nf[nf] = el
    assert total == 2047
    elements = list(by_nf.values())
    assert len(set(elements)) == len(elements)


@criterion(3, "tail-offset pair is a homomorphism onto Z x Z; preimages round-trip")
def test_criterion_3_quotient_homomorphism():
    rng = random.Random(1001)
    for _ in range(1000):
        a, b = random_element(rng, 3, 3), random_element(rng, 3, 3)
        assert mgc_signature(a * b) == mgc_signature(a) + mgc_signature(b)
    for _ in range(1000):
        a, b = am.random_almost(rng), am.random_almost(rng)
        assert mgc_signature(am.compose_almost(a, b)) == mgc_signature(a) + mgc_signature(b)
    for pair in product(range(-4, 5), repeat=2):
        assert mgc_signature(signature_preimage(pair)) == Signature(*pair)


@criterion(4, "every idempotent pair is connected by infinitely many elements")
def test_criterion_4_bisimplicity_witnesses():
    rng = random.Random(1002)
    for _ in range(200):
        eps = IdempotentGaps(rng.sample(range(-7, 8), rng.randint(0, 3)))
        phi = IdempotentGaps(rng.sample(range(-7, 8), rng.randint(0, 3)))
        seen = set()
        for i in range(-3, 4):
            a = connect_idempotents(eps, phi, i)
            assert a * a.inverse() == eps.to_element()
            assert a.inverse() * a == phi.to_element()
            seen.add(a)
        assert len(seen) == 7


@criterion(5, "two-sided factorization through an arbitrary element, exact")
def test_criterion_5_simplicity_factorization():
    rng = random.Random(1003)
    for _ in range(200):
        gamma = random_element(rng, 3, 3)
        phi = random_element(rng, 3, 3)
        kappa, xi = factorize_simple(gamma, phi)
        assert kappa * phi * xi == gamma


def _solve_family():
    """Every element with gap sets inside {0,1,2}, at most 2 gaps, offsets in [-2,2]."""
    out = []
    positions = (0, 1, 2)
    for nd in range(3):
        for dg in combinations(positions, nd):
            for nr in range(3):
                for rg in combinations(positions, nr):
                    for left in range(-2, 3):
                        if -2 <= left + nr - nd <= 2:
                            out.append(element_from_gaps(dg, rg, left))
    return out


def _solve_candidate_box():
    """Bounded canonical space guaranteed to contain every solution for the family.

    For a*x == b: dom(x) contains ((dom b))a, so the domain gaps of x lie in
    ran-gaps(a) union a(dom-gaps(b)), all inside [-2, 4], and number at most
    4; ran(x) contains ran(b), so the range gaps of x lie in b's, inside
    [-2, 4], at most 2; the left offset of any solution is a difference of
    the inputs' left offsets, inside [-4, 4].
    """
    window = range(-2, 5)
    out = []
    for nd in range(5):
        for dg in combinations(window, nd):
            for nr in range(3):
                for rg in combinations(window, nr):
                    for left in range(-4, 5):
                        out.append(element_from_gaps(dg, rg, left))
    return out


# The brute force of criterion 6 tabulates each candidate once and never calls
# the segment kernel.  Every family member is a translation on (-inf, -3] and
# on [5, +inf): its gaps lie in {0, 1, 2} and both its offsets in [-2, 2].
# Every candidate is a translation on (-inf, -7] and on [13, +inf): its gaps
# lie in [-2, 4], its left offset in [-4, 4] and its right offset in [-8, 6].
# So for a in the family, a*x is a translation on (-inf, -9], which a sends
# into (-inf, -7], and on [15, +inf), which a sends into [13, +inf); so is
# every family member b.  Hence a*x == b exactly when the two agree on the
# key window [-9, 15], whose end points fix both tails.  a is monotone, so it
# sends the window into [a(-9), a(15)], inside the table window [-11, 17].
_KEY_WINDOW = range(-9, 16)
_TABLE_WINDOW = range(-11, 18)


@criterion(6, "one-sided equation solutions match brute-force enumeration exactly")
def test_criterion_6_equation_solving():
    family = _solve_family()
    assert len(family) == 209
    box = _solve_candidate_box()
    candidates = [x.segments for x in box]
    tables = [tuple(map(x, _TABLE_WINDOW)) for x in box]
    windows = [tuple(map(b, _KEY_WINDOW)) for b in family]
    for a, images in zip(family, windows):
        # a*x at the window points in dom(a), read off x's table at their images
        key = itemgetter(*[y - _TABLE_WINDOW[0] for y in images if y is not None])
        targets = {}
        for b, values in zip(family, windows):
            if all(v is None for v, y in zip(values, images) if y is None):
                targets[tuple(v for v, y in zip(values, images) if y is not None)] = b
        # only candidates whose key matches a family member are kept
        keys = list(map(key, tables))
        groups = defaultdict(list)
        for xsegs, k in compress(zip(candidates, keys), map(targets.__contains__, keys)):
            groups[targets[k]].append(xsegs)
        for b in family:
            brute = set(groups.get(b, ()))
            got = {x.segments for x in solve_right(a, b)}
            assert got == brute, (a, b)


@criterion(7, "minimal exception sets match exhaustive search; monotonizers work")
def test_criterion_7_minimal_exceptions():
    rng = random.Random(1004)
    for _ in range(500):
        a = am.random_almost(rng, max_offset=2, window=5, max_middle=8)
        exc = am.minimal_exceptions(a)
        assert exc == brute_minimal_exceptions(a.middle)
        left, right, both = am.monotonizers(a)
        la = am.compose_almost(am.from_monotone(left.to_element()), a)
        ar = am.compose_almost(a, am.from_monotone(right.to_element()))
        eae = am.compose_almost(
            am.from_monotone(both.to_element()),
            am.compose_almost(a, am.from_monotone(both.to_element())),
        )
        am.to_monotone(la)
        am.to_monotone(ar)
        am.to_monotone(eae)


@criterion(8, "unit decomposition round-trips; shift part is additive")
def test_criterion_8_unit_decomposition():
    rng = random.Random(1005)
    for _ in range(500):
        u = am.random_unit(rng)
        v = am.random_unit(rng)
        du = am.unit_decompose(u)
        assert am.unit_recompose(du) == u
        uv = am.compose_almost(u, v)
        assert am.unit_decompose(uv).shift == du.shift + am.unit_decompose(v).shift


@criterion(9, "topology certificates audit clean; pinned H-neighborhoods are singletons")
def test_criterion_9_topology():
    rng = random.Random(1006)
    for _ in range(50):
        a = random_element(rng, 2, 2)
        b = random_element(rng, 2, 2)
        g = a * b
        dom = [x for x in range(-8, 9) if x in g]
        pins = set(rng.sample(dom, rng.randint(0, 3)))
        assert audit_product_cover(a, b, pins, rng, samples=4)
        doma = [x for x in range(-8, 9) if x in a]
        assert audit_inverse_cover(a, set(rng.sample(doma, rng.randint(0, 2))), rng, samples=4)
    done = 0
    while done < 34:
        a = random_element(rng, 2, 2)
        b = random_element(rng, 2, 2)
        if a == b:
            continue
        done += 1
        assert audit_separate(a, b, rng, samples=3)
    checks = 0
    for _ in range(40):
        a = random_element(rng, 2, 2)
        dom = [x for x in range(-8, 9) if x in a]
        nb = BasicNeighborhood(a, {rng.choice(dom)}, "H")
        fam = h_class_members(a, range(a.left_offset - 3, a.left_offset + 4))
        hits = [d for d in fam if member(nb, d)]
        checks += len(fam)
        assert hits == [a]
    assert checks >= 200


@criterion(10, "algebraic laws on 2000 random elements, exact")
def test_criterion_10_algebraic_laws():
    rng = random.Random(1007)
    pool = [random_element(rng, 3, 3) for _ in range(2000)]
    for a in pool:
        assert a.right_offset - a.left_offset == len(a.ran_gaps()) - len(a.dom_gaps())
        assert a.inverse().inverse() == a
        assert a * a.inverse() * a == a
    for i in range(0, 2000, 3):
        a, b, c = pool[i], pool[(i + 1) % 2000], pool[(i + 2) % 2000]
        assert (a * b) * c == a * (b * c)
        assert (a * b).inverse() == b.inverse() * a.inverse()
    for i in range(0, 2000, 2):
        e = IdempotentGaps(pool[i].dom_gaps())
        f = IdempotentGaps(pool[i + 1].dom_gaps())
        prod = e.to_element() * f.to_element()
        assert prod.is_idempotent()
        assert IdempotentGaps.from_element(prod) == e.meet(f)
