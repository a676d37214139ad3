"""The four seeded workloads as fixed operation lists.

Each builder turns a seed into a list of ``Op``: a kind, a size (gap width,
family index or solution count, recorded for the report), the function to
time, its arguments, and the oracle check for its result.  Op functions reach
the library through module attributes at call time, so the tracer's wrappers
see every call.  Mixes use fixed counts per kind and stratified sizes, so the
cost of one pass barely depends on the seed; only the instances do.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout

from cofinj import almost, bicyclic, cli, congruence, core, exprlang, green, topology
from cofinj.core import NEG_INF, POS_INF

import oracle

Op = namedtuple("Op", "kind size fn args check")


def _mix(table, smoke):
    """Expand (kind, count) pairs; smoke mode keeps every kind at a tiny count."""
    return [(kind, max(1, n // 25) if smoke else n) for kind, n in table]


def _sample_set(rng, k, lo, hi):
    return frozenset(rng.sample(range(lo, hi + 1), k))


# -- op functions ----------------------------------------------------------------------


def mul(a, b):
    return a * b


def inverse(a):
    return core.inverse(a)


def a_ainv_a(a):
    return a * a.inverse() * a


def gaps(a):
    return a.dom_gaps(), a.ran_gaps()


def r_equiv(a, b):
    return green.r_equiv(a, b)


def l_equiv(a, b):
    return green.l_equiv(a, b)


def h_equiv(a, b):
    return green.h_equiv(a, b)


def mgc_signature(a):
    return congruence.mgc_signature(a)


def element_from_gaps(d, r, k):
    return core.element_from_gaps(d, r, k)


def connect_idempotents(eps, phi, i):
    return green.connect_idempotents(eps, phi, i)


def factorize_simple(gamma, phi):
    return green.factorize_simple(gamma, phi)


def idem_meet(e, f):
    return e.meet(f)


def idem_covers(e, f):
    return e.covers(f)


def idem_to_element(e):
    return e.to_element()


def eval_word(w):
    return bicyclic.eval_word(w)


def text_roundtrip(a):
    return core.parse_element(a.to_text())


def compose_almost(a, b):
    return almost.compose_almost(a, b)


def inverse_almost(a):
    return almost.inverse_almost(a)


def from_monotone(a):
    return almost.from_monotone(a)


def to_monotone(a):
    return almost.to_monotone(a)


def canonicalize(a):
    return almost.canonicalize(a)


def minimal_exceptions(a):
    return almost.minimal_exceptions(a)


def monotonizers(a):
    return almost.monotonizers(a)


def unit_decompose(u):
    return almost.unit_decompose(u)


def unit_recompose(dec):
    return almost.unit_recompose(dec)


def witness_idempotent(a, b):
    return congruence.witness_idempotent(a, b)


def solve_right(a, b, within):
    return green.solve_right(a, b, within=within)


def solve_left(a, b, within):
    return green.solve_left(a, b, within=within)


def product_cover(a, b, pins):
    return topology.product_cover(a, b, pins)


def inverse_cover(g, pins):
    return topology.inverse_cover(g, pins)


def separate(a, b):
    return topology.separate(a, b)


def member(nbhd, e):
    return topology.member(nbhd, e)


def audit_product_cover(a, b, pins, seed):
    return topology.audit_product_cover(a, b, pins, random.Random(seed))


def audit_inverse_cover(g, pins, seed):
    return topology.audit_inverse_cover(g, pins, random.Random(seed))


def audit_separate(a, b, seed):
    return topology.audit_separate(a, b, random.Random(seed))


# -- extra checks built from oracle primitives ---------------------------------------------


def _check_relation(result, rel, a, b):
    ga, gb = oracle.gap_sets(a), oracle.gap_sets(b)
    want = {"r": ga[0] == gb[0], "l": ga[1] == gb[1], "h": ga == gb}[rel]
    return oracle.check_bool(result, want)


def _check_signature(result, a):
    return None if tuple(result) == oracle.signature(a) else f"signature {tuple(result)} != {oracle.signature(a)}"


def _check_factorize(result, gamma, phi):
    kappa, xi = result
    return oracle.check_compose(gamma, kappa, phi, xi)


def _check_value(result, want):
    return None if result == want else f"{result!r} != {want!r}"


def _check_meet(result, gaps):
    return _check_value(result.gaps, gaps)


def _check_word(result, n, orientation, letters):
    msg = oracle.check_word(result, n, orientation, letters)
    if msg is None and letters == "pq" and oracle.PointMap(result).segs != [(NEG_INF, POS_INF, 0)]:
        msg = "p*q is not the identity"
    return msg


def _check_kind(result, elem, monotone):
    if hasattr(result, "segments") != monotone:
        return f"{result!r} is in the wrong representation"
    return oracle.check_same(result, elem)


def _check_canonical(result, elem):
    return _check_kind(result, elem, oracle.is_monotone_map(elem))


def _check_recompose(result, dec):
    return oracle.check_unit_decompose(dec, result)


def _check_at_least_one(result, a, b, side):
    if not result:
        return "no solutions, but one was planted"
    return oracle.check_solutions(result, a, b, side)


def _check_true(result):
    return oracle.check_bool(result, True)


# -- mono_arith ------------------------------------------------------------------------------

MONO_MIX = [
    ("mul", 900),
    ("mul_corpus_small", 150),
    ("mul_corpus_wide", 150),
    ("mul_wide_int", 20),
    ("mul_long", 20),
    ("inverse", 100),
    ("a_ainv_a", 100),
    ("gaps", 80),
    ("r_equiv", 27),
    ("l_equiv", 27),
    ("h_equiv", 26),
    ("mgc_signature", 60),
    ("element_from_gaps", 50),
    ("connect_idempotents", 50),
    ("factorize_simple", 50),
    ("idem_meet", 20),
    ("idem_covers", 20),
    ("idem_to_element", 20),
    ("eval_word", 60),
    ("text_roundtrip", 70),
]

WIDE_INT = 2**60  # above the compiled kernel's 2^59 bound


def _small(rng):
    """Criterion-10 sized element: at most 3 gaps on each side, tail offsets at most 3."""
    return core.random_element(rng, 3, 3)


def _long(rng):
    """About 70 segments: more than the compiled kernel's 60-segment cap."""
    d = rng.sample(range(-140, 141, 4), 35)
    r = rng.sample(range(-140, 141, 4), 35)
    return core.element_from_gaps(d, r, rng.randint(-3, 3))


def _related(rng, a, rel):
    """An element sharing a's domain gaps (r), range gaps (l) or both (h) half the time."""
    dg, rg = oracle.gap_sets(a)
    if rng.random() < 0.5:
        return _small(rng)
    other_d = _sample_set(rng, rng.randint(0, 3), -8, 8)
    other_r = _sample_set(rng, rng.randint(0, 3), -8, 8)
    d = dg if rel in "rh" else other_d
    r = rg if rel in "lh" else other_r
    return core.element_from_gaps(d, r, rng.randint(-3, 3))


def build_mono(rng, smoke):
    ops = []
    for kind, n in _mix(MONO_MIX, smoke):
        for _ in range(n):
            if kind == "mul":
                a, b = _small(rng), _small(rng)
                ops.append(Op(kind, len(a.segments) + len(b.segments), mul, (a, b), (oracle.check_compose, (a, b))))
            elif kind in ("mul_corpus_small", "mul_corpus_wide"):
                g, o = (2, 2) if kind == "mul_corpus_small" else (6, 4)
                a, b = core.random_element(rng, g, o), core.random_element(rng, g, o)
                ops.append(Op(kind, len(a.segments) + len(b.segments), mul, (a, b), (oracle.check_compose, (a, b))))
            elif kind == "mul_wide_int":
                big = core.shift(WIDE_INT + rng.randint(-3, 3))
                a = _small(rng) * big
                b = big.inverse() * _small(rng) * big
                ops.append(Op(kind, len(a.segments) + len(b.segments), mul, (a, b), (oracle.check_compose, (a, b))))
            elif kind == "mul_long":
                a, b = _long(rng), _small(rng)
                if rng.random() < 0.5:
                    a, b = b, a
                ops.append(Op(kind, len(a.segments) + len(b.segments), mul, (a, b), (oracle.check_compose, (a, b))))
            elif kind == "inverse":
                a = _small(rng)
                ops.append(Op(kind, len(a.segments), inverse, (a,), (oracle.check_inverse, (a,))))
            elif kind == "a_ainv_a":
                a = _small(rng)
                ops.append(Op(kind, len(a.segments), a_ainv_a, (a,), (oracle.check_structural, (a,))))
            elif kind == "gaps":
                a = _small(rng)
                ops.append(Op(kind, len(a.segments), gaps, (a,), (oracle.check_gaps, (a,))))
            elif kind in ("r_equiv", "l_equiv", "h_equiv"):
                a = _small(rng)
                b = _related(rng, a, kind[0])
                fn = {"r_equiv": r_equiv, "l_equiv": l_equiv, "h_equiv": h_equiv}[kind]
                ops.append(Op(kind, len(a.segments), fn, (a, b), (_check_relation, (kind[0], a, b))))
            elif kind == "mgc_signature":
                a = _small(rng)
                ops.append(Op(kind, len(a.segments), mgc_signature, (a,), (_check_signature, (a,))))
            elif kind == "element_from_gaps":
                d = _sample_set(rng, rng.randint(0, 3), -8, 8)
                r = _sample_set(rng, rng.randint(0, 3), -8, 8)
                k = rng.randint(-3, 3)
                ops.append(Op(kind, len(d) + len(r), element_from_gaps, (d, r, k), (oracle.check_from_gaps, (d, r, k))))
            elif kind == "connect_idempotents":
                eps = core.IdempotentGaps(_sample_set(rng, rng.randint(0, 3), -8, 8))
                phi = core.IdempotentGaps(_sample_set(rng, rng.randint(0, 3), -8, 8))
                i = rng.randint(-3, 3)
                ops.append(Op(kind, len(eps.gaps) + len(phi.gaps), connect_idempotents, (eps, phi, i),
                              (oracle.check_from_gaps, (eps.gaps, phi.gaps, i))))
            elif kind == "factorize_simple":
                gamma, phi = _small(rng), _small(rng)
                ops.append(Op(kind, len(gamma.segments), factorize_simple, (gamma, phi), (_check_factorize, (gamma, phi))))
            elif kind in ("idem_meet", "idem_covers", "idem_to_element"):
                e = frozenset(_sample_set(rng, rng.randint(0, 3), -8, 8))
                if kind == "idem_covers" and rng.random() < 0.5:
                    f = e | {rng.choice([x for x in range(-9, 10) if x not in e])}
                else:
                    f = frozenset(_sample_set(rng, rng.randint(0, 3), -8, 8))
                ie, if_ = core.IdempotentGaps(e), core.IdempotentGaps(f)
                if kind == "idem_meet":
                    ops.append(Op(kind, len(e | f), idem_meet, (ie, if_), (_check_meet, (e | f,))))
                elif kind == "idem_covers":
                    want = e <= f and len(f - e) == 1
                    ops.append(Op(kind, len(f), idem_covers, (ie, if_), (oracle.check_bool, (want,))))
                else:
                    ops.append(Op(kind, len(e), idem_to_element, (ie,), (oracle.check_idempotent, (e,))))
            elif kind == "eval_word":
                n, o = rng.randint(-5, 5), rng.choice("+-")
                letters = "pq" if rng.random() < 0.25 else "".join(rng.choice("pq") for _ in range(rng.randint(1, 8)))
                w = bicyclic.BicyclicWord(n, o, letters)
                ops.append(Op(kind, len(letters), eval_word, (w,), (_check_word, (n, o, letters))))
            elif kind == "text_roundtrip":
                a = _small(rng)
                ops.append(Op(kind, len(a.segments), text_roundtrip, (a,), (oracle.check_structural, (a,))))
    return ops


# -- almost_arith --------------------------------------------------------------------------

ALMOST_MIX = [
    ("compose", 600),
    ("compose_mixed", 300),
    ("inverse", 200),
    ("from_monotone", 120),
    ("to_monotone", 120),
    ("canonicalize", 120),
    ("minimal_exceptions", 160),
    ("monotonizers", 100),
    ("unit_decompose", 80),
    ("unit_recompose", 80),
    ("witness_idempotent", 80),
    ("mgc_signature", 40),
]

# Two window widths: +-5 (criterion sized) and +-50.  Every third op of a kind
# is wide: at half and half the median would sit on the gap between the two
# cost clusters and jump between them from seed to seed.
NARROW = dict(max_offset=2, window=5, max_middle=6)
WIDE_WINDOW = 50
# Middle sizes of the wide elements, cycled within each kind.  minimal_exceptions
# is cubic in the middle size and its cost varies twofold between instances of
# one size; with sizes up to 40 the tail was a handful of such ops and moved by
# a third from seed to seed.  Up to 20 they cost about what a +-50 window walk
# costs, so the tail sits in a dense band.
WIDE_MIDDLES = (5, 10, 15, 20)


def _am_wide(rng, n, max_offset=3):
    """An almost-monotone element on a window of about +-WIDE_WINDOW with n middle points."""
    dl, ur = rng.randint(-max_offset, max_offset), rng.randint(-max_offset, max_offset)
    d, u = -WIDE_WINDOW + rng.randint(0, 3), WIDE_WINDOW - rng.randint(0, 3)
    keys = rng.sample(range(d + 1, u), n)
    vals = rng.sample(range(d + dl + 1, u + ur), n)
    return almost.make_almost(d, dl, u, ur, dict(zip(keys, vals)))


def _am(rng, wide, j=0):
    return _am_wide(rng, WIDE_MIDDLES[j % len(WIDE_MIDDLES)]) if wide else almost.random_almost(rng, **NARROW)


def _mono_for(rng, wide):
    return core.random_element(rng, 20, 3) if wide else _small(rng)


def _window_size(e):
    f = oracle.PointMap(e)
    lo, hi = f.span()
    return hi - lo


def build_almost(rng, smoke):
    ops = []
    for kind, n in _mix(ALMOST_MIX, smoke):
        for i in range(n):
            wide, j = i % 3 == 2, i // 3
            if kind == "compose":
                a, b = _am(rng, wide, j), _am(rng, wide, j + 3)
                ops.append(Op(kind, _window_size(a), compose_almost, (a, b), (oracle.check_compose, (a, b))))
            elif kind == "compose_mixed":
                a, b = _am(rng, wide, j), _mono_for(rng, wide)
                if rng.random() < 0.5:
                    a, b = b, a
                ops.append(Op(kind, _window_size(a), compose_almost, (a, b), (oracle.check_compose, (a, b))))
            elif kind == "inverse":
                a = _am(rng, wide, j)
                ops.append(Op(kind, _window_size(a), inverse_almost, (a,), (oracle.check_inverse, (a,))))
            elif kind == "from_monotone":
                m = _mono_for(rng, wide)
                ops.append(Op(kind, _window_size(m), from_monotone, (m,), (_check_kind, (m, False))))
            elif kind == "to_monotone":
                x = almost.from_monotone(_mono_for(rng, wide))
                ops.append(Op(kind, _window_size(x), to_monotone, (x,), (_check_kind, (x, True))))
            elif kind == "canonicalize":
                x = almost.from_monotone(_mono_for(rng, wide)) if j % 2 else _am(rng, wide, j)
                ops.append(Op(kind, _window_size(x), canonicalize, (x,), (_check_canonical, (x,))))
            elif kind == "minimal_exceptions":
                x = _am(rng, wide, j)
                ops.append(Op(kind, len(x.middle), minimal_exceptions, (x,), (oracle.check_min_exceptions, (x,))))
            elif kind == "monotonizers":
                x = _am(rng, wide, j)
                ops.append(Op(kind, len(x.middle), monotonizers, (x,), (oracle.check_monotonizers, (x,))))
            elif kind in ("unit_decompose", "unit_recompose"):
                u = almost.random_unit(rng, max_shift=3, window=40 if wide else 4, max_support=20 if wide else 5)
                if kind == "unit_decompose":
                    ops.append(Op(kind, _window_size(u), unit_decompose, (u,), (oracle.check_unit_decompose, (u,))))
                else:
                    dec = almost.unit_decompose(u)
                    ops.append(Op(kind, len(dec.support_perm), unit_recompose, (dec,), (_check_recompose, (dec,))))
            elif kind == "witness_idempotent":
                a = _am(rng, wide, j)
                w = WIDE_WINDOW if wide else NARROW["window"]
                e = core.IdempotentGaps(_sample_set(rng, rng.randint(1, 4), -w, w)).to_element()
                b = almost.compose_almost(e, a)
                ops.append(Op(kind, _window_size(a), witness_idempotent, (a, b), (oracle.check_witness, (a, b))))
            elif kind == "mgc_signature":
                a = _am(rng, wide, j)
                ops.append(Op(kind, _window_size(a), mgc_signature, (a,), (_check_signature, (a,))))
    return ops


# -- search_wide ---------------------------------------------------------------------------

# (f, v): range gaps of a and of b in an almost solve; the count is
# sum_k C(f,k) C(v,k) k!, from 1 to 501 (more than 100x apart).
ALMOST_SOLVE_GRID = [(0, 0), (0, 2), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (4, 4), (4, 5)]
ALMOST_SOLVE_GRID_SMOKE = [(0, 0), (1, 1), (2, 2), (3, 3)]

# Gap widths, log-spaced over more than a decade.  Linear ops scan the gap
# point by point; inverse_cover probes every range gap point by point and is
# quadratic, so it gets a range ten times narrower at similar cost.
LINEAR_WIDTHS = (200, 4000)
QUADRATIC_WIDTHS = (15, 200)
SMOKE_LINEAR_WIDTHS = (20, 200)
SMOKE_QUADRATIC_WIDTHS = (5, 50)

WIDE_KINDS = ["wide_l_equiv", "wide_h_equiv", "wide_member", "wide_product_cover", "wide_separate",
              "wide_from_monotone"]


def _widths(lo, hi, k):
    """k widths at the log-spaced midpoints of k strata of [lo, hi]; the same on every seed."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / k)) for i in range(k)]


def _two_segment(c, w, s, k):
    """seg[(-inf..c,+s),(c+w+1..+inf,+s+k)]: w domain gaps and w+k range gaps."""
    return core.normalize([(NEG_INF, c, s), (c + w + 1, POS_INF, s + k)])


def _almost_solve_instance(rng, f, v):
    """(a, b) with f range gaps in a = E{S}, S inside the domain gaps of b, and v range gaps in b."""
    while True:
        b = almost.random_almost(rng, max_offset=2, window=3, max_middle=6)
        dg, rg = oracle.gap_sets(b)
        if len(dg) >= f and len(rg) == v:
            s = rng.sample(sorted(dg), f)
            return core.IdempotentGaps(s).to_element(), b


def _domain_points(e, lo=-4, hi=4):
    f = oracle.PointMap(e)
    return [x for x in range(lo, hi + 1) if f(x) is not None]


def _pins(rng, e, k=2):
    pts = _domain_points(e)
    return frozenset(rng.sample(pts, min(k, len(pts))))


def _distinct_pair(rng):
    while True:
        a, b = core.random_element(rng, 2, 2), core.random_element(rng, 2, 2)
        if a.segments != b.segments:
            return a, b


def build_search(rng, smoke):
    ops = []
    # Monotone family E{0..n-1} * ? = E{0..n-1}: C(2n, n) solutions, 2 to 924.
    for n in range(1, 4 if smoke else 7):
        e = core.IdempotentGaps(range(n)).to_element()
        want = oracle.monotone_family_count(n)
        ops.append(Op("solve_right_family", want, solve_right, (e, e, "monotone"),
                      (oracle.check_solutions, (e, e, "right", want))))
        ops.append(Op("solve_left_family", want, solve_left, (e, e, "monotone"),
                      (oracle.check_solutions, (e, e, "left", want))))
    # Random monotone pairs with a planted solution y.
    for i in range(4 if smoke else 64):
        a, y = _small(rng), _small(rng)
        side = "right" if i % 2 == 0 else "left"
        b = a * y if side == "right" else y * a
        fn = solve_right if side == "right" else solve_left
        ops.append(Op(f"solve_{side}_random", len(a.segments), fn, (a, b, "monotone"),
                      (_check_at_least_one, (a, b, side))))
    # Almost-monotone solves on windows of at most 3, counts 1 to 501.
    for f, v in ALMOST_SOLVE_GRID_SMOKE if smoke else ALMOST_SOLVE_GRID:
        for j in range(1 if smoke else 6):
            a, b = _almost_solve_instance(rng, f, v)
            want = oracle.almost_solution_count(f, v)
            if j % 3 < 2:
                ops.append(Op("solve_right_almost", want, solve_right, (a, b, "almost"),
                              (oracle.check_solutions, (a, b, "right", want))))
            else:
                b = almost.inverse_almost(b)
                ops.append(Op("solve_left_almost", want, solve_left, (a, b, "almost"),
                              (oracle.check_solutions, (a, b, "left", want))))
    # Topology on small elements.
    topo = [("product_cover", 16), ("inverse_cover", 16), ("separate", 16), ("audit_product_cover", 12),
            ("audit_inverse_cover", 10), ("audit_separate", 10)]
    for kind, n in _mix(topo, smoke):
        for _ in range(n):
            a, b = _distinct_pair(rng)
            seed = rng.getrandbits(32)
            if kind in ("product_cover", "audit_product_cover"):
                pins = _pins(rng, a * b)
                if kind == "product_cover":
                    ops.append(Op(kind, len(pins), product_cover, (a, b, pins),
                                  (oracle.check_product_cover, (a, b, pins))))
                else:
                    ops.append(Op(kind, len(pins), audit_product_cover, (a, b, pins, seed), (_check_true, ())))
            elif kind in ("inverse_cover", "audit_inverse_cover"):
                pins = _pins(rng, a)
                if kind == "inverse_cover":
                    ops.append(Op(kind, len(pins), inverse_cover, (a, pins), (oracle.check_inverse_cover, (a, pins))))
                else:
                    ops.append(Op(kind, len(pins), audit_inverse_cover, (a, pins, seed), (_check_true, ())))
            elif kind == "separate":
                ops.append(Op(kind, 0, separate, (a, b), (oracle.check_separate, (a, b))))
            else:
                ops.append(Op(kind, 0, audit_separate, (a, b, seed), (_check_true, ())))
    # The wide slice: two-segment elements whose gap width spans more than a decade.
    per_kind = 3 if smoke else 24
    lin = SMOKE_LINEAR_WIDTHS if smoke else LINEAR_WIDTHS
    quad = SMOKE_QUADRATIC_WIDTHS if smoke else QUADRATIC_WIDTHS
    for kind in WIDE_KINDS:
        for w in _widths(*lin, per_kind):
            c, s, k = rng.randint(-20, 20), rng.randint(-3, 3), rng.randint(-3, 3)
            a = _two_segment(c, w, s, k)
            if kind == "wide_l_equiv":
                same = rng.random() < 0.5
                b = _two_segment(c + 1, w - 2, s - 1, k + 2) if same else _two_segment(c, w, s, k + 1)
                ops.append(Op(kind, w, l_equiv, (a, b), (_check_relation, ("l", a, b))))
            elif kind == "wide_h_equiv":
                b = a if rng.random() < 0.5 else _two_segment(c, w, s, k + 1)
                ops.append(Op(kind, w, h_equiv, (a, b), (_check_relation, ("h", a, b))))
            elif kind == "wide_member":
                nb = topology.BasicNeighborhood(a, {c}, "W")
                e = _two_segment(c, w + 2, s, k - 2) if rng.random() < 0.5 else _two_segment(c, w + 2, s + 1, k - 3)
                ops.append(Op(kind, w, member, (nb, e), (oracle.check_member, (a, {c}, e))))
            elif kind == "wide_product_cover":
                t = rng.randint(-3, 3)
                left = core.shift(t)
                pins = frozenset({c - t})
                ops.append(Op(kind, w, product_cover, (left, a, pins), (oracle.check_product_cover, (left, a, pins))))
            elif kind == "wide_separate":
                b = _two_segment(c, w + 1, s, k - 1)
                ops.append(Op(kind, w, separate, (a, b), (oracle.check_separate, (a, b))))
            elif kind == "wide_from_monotone":
                ops.append(Op(kind, w, from_monotone, (a,), (_check_kind, (a, False))))
    for w in _widths(*quad, per_kind):
        c, s = rng.randint(-20, 20), rng.randint(-3, 3)
        g = _two_segment(c, 0, s, w) if rng.random() < 0.5 else _two_segment(c, w, s, 0)
        pins = frozenset({c})
        ops.append(Op("wide_inverse_cover", w, inverse_cover, (g, pins), (oracle.check_inverse_cover, (g, pins))))
    return ops


# -- cli_script ----------------------------------------------------------------------------

CLI_MIX = [("cli_eval", 66), ("cli_script_text", 12), ("cli_script_json", 12)]
CLI_ENTRY = "import sys; from cofinj.cli import main; sys.exit(main())"  # what the cofinj console script runs
SHORT_FORMS = 22  # statement forms 0..21 on small operands; 18..21 are the sampling forms
LONG_FORMS = 5  # forms with long seg[...]/am[...] literals
# Every script has the same forms, so its cost barely depends on the seed:
# 30 long statements, the 18 non-sampling forms once and the first 11 again,
# and one sampling form (sample, audit_*), which draws 20 members and would
# otherwise dominate.  Scripts cycle through the four sampling forms.
SCRIPT_FORMS = [SHORT_FORMS + f for f in range(LONG_FORMS)] * 6 + list(range(18)) + list(range(11))


class CliRunner:
    """Runs cofinj as the console script would, from the checkout's source tree."""

    def __init__(self, root):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.cwd = root

    def process(self, argv):
        p = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=self.env, cwd=self.cwd,
                           capture_output=True, text=True, timeout=60)
        return p.returncode, p.stdout, p.stderr


def startup_op():
    """A bare `cofinj --eval id`, whose wall time as a process is start-up."""
    return Op("cli_startup", 1, run_in_process, (["--eval", "id"],), (check_cli, ([("id", None)], "text", 0)))


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


class _Stmts:
    """Random exprlang statements that evaluate without error, with oracle data for products."""

    def __init__(self, rng):
        self.rng = rng

    def mono(self):
        rng = self.rng
        r = rng.random()
        if r < 0.15:
            return core.shift(rng.randint(-4, 4))
        if r < 0.3:
            return core.IdempotentGaps(_sample_set(rng, rng.randint(1, 3), -5, 5)).to_element()
        if r < 0.4:
            return bicyclic.gen(rng.randint(-3, 3), rng.choice("+-"), rng.choice("pq"))
        return _small(rng)

    def am(self, long=False):
        if long:
            return almost.random_almost(self.rng, max_offset=3, window=30, max_middle=25)
        return almost.random_almost(self.rng)

    def long_seg(self):
        return core.random_element(self.rng, 25, 5)

    @staticmethod
    def text(e):
        return e.to_seg_text() if hasattr(e, "segments") and len(e.segments) > 1 else e.to_text()

    def pins_in(self, e):
        pts = _domain_points(e)
        return ", ".join(str(p) for p in sorted(self.rng.sample(pts, min(2, len(pts)))))

    def statement(self, form):
        """(text, oracle factors or None) for a form in range(SHORT_FORMS + LONG_FORMS)."""
        rng, t = self.rng, self.text
        if form >= SHORT_FORMS:
            form -= SHORT_FORMS
            if form == 0:
                return t(self.long_seg()), None
            if form == 1:
                a, b = self.long_seg(), self.long_seg()
                return f"{t(a)} * {t(b)}", (a, b)
            if form == 2:
                return self.am(True).to_text(), None
            if form == 3:
                a, b = self.am(True), self.am(True)
                return f"{a.to_text()} * {b.to_text()}", (a, b)
            return f"{self.am(True).to_text()}^-1", None
        a, b = self.mono(), self.mono()
        if form == 0:
            return f"{t(a)} * {t(b)}", (a, b)
        if form == 1:
            x = self.am()
            return f"{x.to_text()} * {t(a)}", (x, a)
        if form == 2:
            return f"{t(a)}^-1", None
        if form in (3, 4, 5, 6):
            return f"{t(a)} {['~R', '~L', '~H', '~mg'][form - 3]} {t(b)}", None
        if form == 7:
            e = sorted(_sample_set(rng, rng.randint(0, 2), -4, 4))
            f = sorted(_sample_set(rng, rng.randint(0, 2), -4, 4))
            return f"E{{{','.join(map(str, e))}}} <= E{{{','.join(map(str, f))}}}", None
        if form == 8:
            return f"({t(a)}, {t(b)})", None
        if form == 9:
            return f"{{{t(a)}, {t(b)}, {t(self.mono())}}}", None
        if form == 10:
            g = sorted(_sample_set(rng, rng.randint(1, 2), -3, 3))
            e = f"E{{{','.join(map(str, g))}}}"
            return f"solve {e}*? = {e}", None
        if form == 11:
            y = self.mono()
            return f"solve ?*{t(a)} = {t(y)}*{t(a)}", None
        if form == 12:
            return f"h({t(a)})", None
        if form == 13:
            return f"F_min({self.am().to_text()})", None
        if form == 14:
            n, sgn = rng.randint(-3, 3), rng.choice("+-")
            word = "*".join(f"{rng.choice('ab')}{sgn}({n})" for _ in range(rng.randint(1, 6)))
            return f"nf({word})", None
        if form == 15:
            return f"{rng.choice(['nbhd', 'nbhd_h'])}({t(a)}; {self.pins_in(a)})", None
        if form == 16:
            return f"in(nbhd({t(a)}; {self.pins_in(a)}), {t(b)})", None
        if form == 17:
            return f"cover({t(a)}, {t(b)}; {self.pins_in(a * b)})", None
        if form == 18:
            return f"sample(nbhd({t(a)}; {self.pins_in(a)}))", None
        if form == 19:
            return f"audit_cover({t(a)}, {t(b)}; {self.pins_in(a * b)})", None
        if form == 20:
            return f"audit_inv({t(a)}; {self.pins_in(a)})", None
        while a.segments == b.segments:
            b = self.mono()
        return f"audit_sep({t(a)}, {t(b)})", None


def build_cli(rng, smoke, workdir):
    """Ops that each run the cofinj command line once, in process; scripts are written under workdir.

    One-shot --eval calls cycle through every statement form, so the median op
    is an eval of the same form mix on every seed; the scripts are the tail.
    """
    ops = []
    gen = _Stmts(rng)
    os.makedirs(workdir, exist_ok=True)
    for kind, n in _mix(CLI_MIX, smoke):
        for i in range(n):
            seed = rng.randint(0, 10**6)
            if kind == "cli_eval":
                text, factors = gen.statement(i % SHORT_FORMS)
                fmt = "json" if i % 4 == 3 else "text"
                argv = ["--eval", text, "--format", fmt, "--seed", str(seed)]
                stmts = [(text, factors)]
            else:
                fmt = "text" if kind == "cli_script_text" else "json"
                forms = SCRIPT_FORMS + [18 + i % 4]
                rng.shuffle(forms)
                stmts = [gen.statement(f) for f in forms]
                path = os.path.join(workdir, f"{kind}_{i}.cfj")
                with open(path, "w") as fh:
                    fh.write("# generated by perfbench\n")
                    fh.writelines(s + "\n" for s, _ in stmts)
                argv = ["--script", path, "--format", fmt, "--seed", str(seed)]
            ops.append(Op(kind, len(stmts), run_in_process, (argv,), (check_cli, (stmts, fmt, seed))))
    return ops


def _decode_json(j):
    t = j["type"]
    if t in ("bool", "int"):
        return j["value"]
    if t == "monotone":
        bound = {"-inf": NEG_INF, "+inf": POS_INF}
        return core.MonotoneElement(
            (bound.get(s["lo"], s["lo"]), bound.get(s["hi"], s["hi"]), s["offset"]) for s in j["segments"]
        )
    if t == "almost":
        return almost.make_almost(j["d"], j["L"], j["u"], j["R"], {k: v for k, v in j["middle"]})
    if t == "pair":
        return tuple(_decode_json(x) for x in j["items"])
    if t == "set":
        return frozenset(_decode_json(x) for x in j["items"])
    if t == "neighborhood":
        return topology.BasicNeighborhood(_decode_json(j["center"]), j["pins"], j["flavor"])
    raise ValueError(f"unknown JSON value type {t!r}")


def _is_element(v):
    return hasattr(v, "segments") or hasattr(v, "middle")


def _same_value(got, want):
    if _is_element(got) and _is_element(want):
        return oracle.check_same(got, want) is None
    if isinstance(got, tuple) and isinstance(want, tuple):
        return len(got) == len(want) and all(_same_value(x, y) for x, y in zip(got, want))
    return type(got) is type(want) and got == want


def check_cli(result, stmts, fmt, seed):
    """Exit code 0; every output line parses back to the value the statement evaluates to.

    Values come from evaluating the same statements in process with the same
    seed; products of literals are also checked against the pointwise oracle.
    """
    rc, out, err = result
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    lines = out.splitlines()
    if len(lines) != len(stmts):
        return f"{len(lines)} output lines for {len(stmts)} statements"
    ev = exprlang.Evaluator(seed=seed)
    for (text, factors), line in zip(stmts, lines):
        want = ev.run(text)
        got = _decode_json(json.loads(line)) if fmt == "json" else exprlang.Evaluator().run(line)
        if not _same_value(got, want):
            return f"{text[:60]!r} printed {line[:80]!r}, which does not parse back to its value"
        if factors is not None:
            msg = oracle.check_compose(got, *factors)
            if msg:
                return f"{text[:60]!r}: {msg}"
    return None


BUILDERS = {"mono_arith": build_mono, "almost_arith": build_almost, "search_wide": build_search}
WORKLOADS = ("mono_arith", "almost_arith", "search_wide", "cli_script")


def build(workload, seed, smoke, workdir):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_script":
        ops = build_cli(rng, smoke, workdir)
    else:
        ops = BUILDERS[workload](rng, smoke)
    rng.shuffle(ops)
    return ops


def run_check(op, result):
    checker, extra = op.check
    return checker(result, *extra)


def tail_rank(n):
    """Index and percentile of the highest percentile with at least ten samples beyond it.

    Lists of ten or fewer ops have no such percentile; their tail is the maximum.
    """
    idx = n - 11 if n > 10 else n - 1
    return idx, 100.0 * (idx + 1) / n if n else 0.0


def describe(ops):
    """Per-kind op counts and size ranges, for the report."""
    out = {}
    for op in ops:
        d = out.setdefault(op.kind, {"ops": 0, "min_size": op.size, "max_size": op.size})
        d["ops"] += 1
        d["min_size"] = min(d["min_size"], op.size)
        d["max_size"] = max(d["max_size"], op.size)
    return dict(sorted(out.items()))
