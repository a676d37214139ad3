"""Shared independent oracles for the test suite.

Everything here works pointwise on explicit integer windows or by exhaustive
enumeration, never through the segment arithmetic under test.
"""

import re
import time
from itertools import combinations, filterfalse, permutations, product
from operator import attrgetter

from cofinj import _kernel
from cofinj.almost import AlmostMonotoneElement, _middle_dict, compose_almost, inverse_almost, make_almost
from cofinj.core import (
    NEG_INF,
    POS_INF,
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    Segment,
    _check_segment,
    _EGAPS_RE,
    _SHIFT_RE,
    _collapse_cached,
    identity,
    normalize,
    shift,
)


def _fastest_ms(fn):
    """(fastest wall time in ms of three calls of fn, the last call's result)."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn()
        dt = (time.perf_counter() - t0) * 1e3
        best = dt if best is None else min(best, dt)
    return best, result


def by_pieces(elems) -> tuple:
    """The elements as a tuple sorted by ``pieces``, the order of the solvers' tuples."""
    return tuple(sorted(elems, key=attrgetter("pieces")))


class _Forged:
    """Pickles as a call of ``fn`` on ``args``, as the library's own types do."""

    def __init__(self, fn, args):
        self.fn, self.args = fn, args

    def __reduce__(self):
        return (self.fn, self.args)


def _wide_domain(e):
    """x -> e(x - 2^60): the domain moves out by 2^60, built from e's data directly."""
    wide = 2**60
    if isinstance(e, MonotoneElement):
        return MonotoneElement([(lo + wide, hi + wide, o - wide) for lo, hi, o in e.segments])
    return make_almost(
        e.left_end + wide,
        e.left_offset - wide,
        e.right_start + wide,
        e.right_offset - wide,
        {k + wide: v for k, v in e.middle.items()},
    )


def window_bound(*elems) -> int:
    return 4 * max((ref_extent(e) for e in elems), default=0) + 8


def window_map(elem, w: int) -> dict:
    """The map as an explicit dict over [-w, w]."""
    out = {}
    for x in range(-w, w + 1):
        y = elem(x)
        if y is not None:
            out[x] = y
    return out


def compose_maps(f: dict, g: dict) -> dict:
    """Pointwise 'f then g' on dicts."""
    return {x: g[y] for x, y in f.items() if y in g}


def assert_same_on_window(elem, mapping: dict, w: int):
    got = window_map(elem, w)
    want = {x: y for x, y in mapping.items() if -w <= x <= w}
    assert got == want, f"pointwise mismatch on [-{w}, {w}]: {got} != {want}"


def brute_minimal_exceptions(middle: dict) -> frozenset:
    """Smallest removal set making the middle increasing, by exhaustive search.

    Enumerates removal sets by (size, lexicographic order of the sorted
    removed keys) and returns the first that works, which is the
    minimum-cardinality, lexicographically-smallest witness.
    """
    keys = sorted(middle)
    for size in range(len(keys) + 1):
        for removed in combinations(keys, size):
            kept = [middle[k] for k in keys if k not in removed]
            if all(a < b for a, b in zip(kept, kept[1:])):
                return frozenset(removed)
    raise AssertionError("unreachable")


def _lis_above(vals, start, floor):
    """Length of the longest increasing subsequence of vals[start:] staying above floor."""
    best = {}
    out = 0
    for j in range(start, len(vals)):
        if vals[j] <= floor:
            continue
        b = 1
        for i, bi in best.items():
            if vals[i] < vals[j] and bi + 1 > b:
                b = bi + 1
        best[j] = b
        if b > out:
            out = b
    return out


def ref_minimal_exceptions(middle: dict) -> frozenset:
    """The same witness as ``brute_minimal_exceptions``, by a cubic greedy that scales further.

    Left to right, a point is removed whenever the points after it can still
    make up a longest increasing run above the values kept so far.
    """
    keys = sorted(middle)
    vals = [middle[k] for k in keys]
    n = len(vals)
    budget = n - _lis_above(vals, 0, NEG_INF)
    removed = []
    floor = NEG_INF
    for i in range(n):
        rest = n - i - 1
        if budget > 0 and _lis_above(vals, i + 1, floor) >= rest - (budget - 1):
            removed.append(keys[i])
            budget -= 1
        else:
            assert vals[i] > floor
            floor = vals[i]
    assert budget == 0
    return frozenset(removed)


def point_minimal_exceptions(middle: dict) -> frozenset:
    """The same witness as ``ref_minimal_exceptions``, by the quadratic longest-run table over points.

    This is ``almost.minimal_exceptions`` as it read every middle point; the
    library now runs the same table over whole inner pieces.
    """
    later = []  # (value, run) of the points after the current one
    points = []  # (point, value, run, value of the next point with that run), last point first
    next_of_run = {}
    for k, v in reversed(sorted(middle.items())):
        r = 1
        for w, s in later:
            if w > v and s >= r:
                r = s + 1
        later.append((v, r))
        points.append((k, v, r, next_of_run.get(r, NEG_INF)))
        next_of_run[r] = v
    need = len(next_of_run)
    floor = NEG_INF
    removed = []
    for k, v, r, after in reversed(points):
        if r == need and v > floor >= after:
            floor = v
            need -= 1
        else:
            removed.append(k)
    return frozenset(removed)


def point_monotonizers(elem):
    """almost.monotonizers as it was: the removed points' images read one call at a time."""
    exc = point_minimal_exceptions(elem.middle) if isinstance(elem, AlmostMonotoneElement) else frozenset()
    left = IdempotentGaps(elem.dom_gaps() | exc)
    right = IdempotentGaps(elem.ran_gaps() | {elem(x) for x in exc})
    return left, right, left.meet(right)


# -- pointwise checks on all of Z, for elements of any width ---------------------------


def breaks(elem) -> set:
    """Each finite piece start of elem, and each point just after a finite piece end.

    Between two consecutive breaks the map is one translation or undefined
    throughout.  Either element class: both read their translation pieces.
    """
    return {b for lo, hi, _ in elem.pieces for b in (lo, hi + 1) if b not in (NEG_INF, POS_INF)}


def image_breaks(elem) -> set:
    """The breaks of elem's inverse map, read off elem's pieces."""
    return {b + o for lo, hi, o in elem.pieces for b in (lo, hi + 1) if b not in (NEG_INF, POS_INF)}


def preimage(elem, y):
    """The x with elem(x) == y, or None; tries one candidate per piece offset."""
    for _, _, o in elem.pieces:
        if elem(y - o) == y:
            return y - o
    return None


def pull_back(elem, ys) -> set:
    """The points that elem maps into ys."""
    return {x for y in ys if (x := preimage(elem, y)) is not None}


def assert_pointwise(elem, ref, ref_breaks):
    """elem(x) == ref(x) for every integer x.

    ref is a function returning None off its domain that is one translation
    or undefined between consecutive points of ref_breaks.  Together with
    breaks(elem) those points cut Z into stretches on which both maps act
    uniformly, so comparing the maps at the first point of every stretch,
    and at one point left of all of them, compares them on all of Z however
    large the integers are.
    """
    pts = breaks(elem) | set(ref_breaks)
    pts.add(min(pts, default=0) - 1)
    for x in sorted(pts):
        assert elem(x) == ref(x), f"pointwise mismatch at {x}: {elem(x)} != {ref(x)}"


# -- point-walk references for the gap-run arithmetic ----------------------------------
#
# These are the frozenset and point-by-point versions of Green's relations,
# pin-neighborhood membership and the three topology certificates.  The library
# reads gap runs and translation pieces instead; these stay as the reference.
# Their cost grows with the gap widths (ref_inverse_cover quadratically) and
# ref_separate walks the whole window [-w, w], so keep the inputs narrow.


def ref_r_equiv(a, b) -> bool:
    return a.dom_gaps() == b.dom_gaps()


def ref_l_equiv(a, b) -> bool:
    return a.ran_gaps() == b.ran_gaps()


def ref_h_equiv(a, b) -> bool:
    return ref_r_equiv(a, b) and ref_l_equiv(a, b)


def ref_dom_within(a, b) -> bool:
    """The solvers' precondition: every domain gap of a is a domain gap of b."""
    return a.dom_gaps() <= b.dom_gaps()


def ref_member(nbhd, elem) -> bool:
    c = nbhd.center
    if nbhd.flavor == "W":
        if not c.dom_gaps() <= elem.dom_gaps():
            return False
    else:
        if c.dom_gaps() != elem.dom_gaps() or c.ran_gaps() != elem.ran_gaps():
            return False
    return all(elem(x) == c(x) for x in nbhd.pins)


def ref_product_cover(a, b, pins):
    g = a * b
    pins = frozenset(pins)
    for x in pins:
        if x not in g:
            raise ValueError(f"pin {x} is outside dom of the product")
    ainv = a.inverse()
    escapes = set()
    for y in b.dom_gaps():
        x = ainv(y)
        if x is not None:
            escapes.add(x)
    f2 = frozenset(a(x) for x in pins)
    return frozenset(pins | escapes), f2


def ref_inverse_cover(g, pins):
    pins = frozenset(pins)
    for x in pins:
        if x not in g:
            raise ValueError(f"pin {x} is outside the domain")
    ginv = g.inverse()
    brackets = set()
    for r in g.ran_gaps():
        lo = r - 1
        while ginv(lo) is None:
            lo -= 1
        hi = r + 1
        while ginv(hi) is None:
            hi += 1
        brackets.add(ginv(lo))
        brackets.add(ginv(hi))
    src = pins | brackets
    tgt = frozenset(g(x) for x in src)
    return frozenset(src), tgt


def ref_separate(a, b):
    """The witness by (|x|, x) over [-w, w]; a and b must differ as maps."""
    w = ref_extent(a) + ref_extent(b) + 2
    for x in sorted(range(-w, w + 1), key=lambda t: (abs(t), t)):
        va, vb = a(x), b(x)
        if va is not None and vb is not None and va != vb:
            return frozenset({x}), frozenset({x})
    diff = sorted(
        (a.dom_gaps() ^ b.dom_gaps()),
        key=lambda t: (abs(t), t),
    )
    x = diff[0]
    if x in a:
        return frozenset({x}), frozenset()
    return frozenset(), frozenset({x})


def expand_runs(runs) -> frozenset:
    return frozenset(x for lo, hi in runs for x in range(lo, hi + 1))


# -- window-walk references for the almost-monotone piece arithmetic -------------------
#
# compose_almost, from_monotone, to_monotone, inverse_almost and the solver's
# graft build their results from translation pieces.  These are the
# versions that walk the window point by point and build through the
# validating make_almost / normalize; their cost grows with the window width
# and the offsets, so keep the inputs narrow.


def _ref_as_almost(elem):
    return ref_from_monotone(elem) if isinstance(elem, MonotoneElement) else elem


def ref_from_monotone(elem):
    segs = elem.segments
    if len(segs) == 1:
        k = segs[0].offset
        return AlmostMonotoneElement(0, k, 1, k, {})
    d, dl = segs[0].hi, segs[0].offset
    u, ur = segs[-1].lo, segs[-1].offset
    mid = {}
    for x in range(d + 1, u):
        y = elem(x)
        if y is not None:
            mid[x] = y
    return make_almost(d, dl, u, ur, mid)


def ref_to_monotone(elem):
    if not elem.is_monotone():
        raise InvalidElementError("element is not monotone")
    raw = [(NEG_INF, elem.left_end, elem.left_offset)]
    for k in sorted(elem.middle):
        raw.append((k, k, elem.middle[k] - k))
    raw.append((elem.right_start, POS_INF, elem.right_offset))
    return normalize(raw)


def ref_compose_almost(a, b):
    a = _ref_as_almost(a)
    b = _ref_as_almost(b)
    d = min(a.left_end, b.left_end - a.left_offset)
    u = max(a.right_start, b.right_start - a.right_offset)
    mid = {}
    for x in range(d + 1, u):
        y = a(x)
        if y is None:
            continue
        z = b(y)
        if z is not None:
            mid[x] = z
    return make_almost(d, a.left_offset + b.left_offset, u, a.right_offset + b.right_offset, mid)


def ref_inverse_almost(a):
    a = _ref_as_almost(a)
    return make_almost(
        a.left_end + a.left_offset,
        -a.left_offset,
        a.right_start + a.right_offset,
        -a.right_offset,
        {v: k for k, v in a.middle.items()},
    )


def ref_extend_almost(base, extra: dict):
    if not extra:
        return base
    d, dl = base.left_end, base.left_offset
    u, ur = base.right_start, base.right_offset
    d = min([d] + [x - 1 for x in extra] + [v - dl - 1 for v in extra.values()])
    u = max([u] + [x + 1 for x in extra] + [v - ur + 1 for v in extra.values()])
    mid = {}
    for x in range(d + 1, u):
        y = base(x)
        if y is not None:
            mid[x] = y
    mid.update(extra)
    return make_almost(d, dl, u, ur, mid)


def ref_witness_gaps(a, b) -> set:
    """witness_idempotent's gap set, by calling both maps at every point of the shared window.

    A map's window is (left_end, right_start) as the tails leave it: for a
    monotone element the end of the first segment and the start of the last,
    (0, 1) for a total translation.
    """

    def window(elem):
        if isinstance(elem, MonotoneElement):
            segs = elem.segments
            return (0, 1) if len(segs) == 1 else (segs[0].hi, segs[-1].lo)
        return elem.left_end, elem.right_start

    lo = min(window(a)[0], window(b)[0])
    hi = max(window(a)[1], window(b)[1])
    gaps = set()
    for x in range(lo + 1, hi):
        for f in (a, b):
            y = f(x)
            if y is not None:
                gaps.add(y)
    return gaps


# -- point-set references for the run builders -------------------------------------------
#
# The library builds collapses, idempotents, elements with given gaps and the
# monotone solver's cells from gap runs, and reads topology's sample extent off
# the pieces.  These are the point-by-point versions and the window-view
# extent, kept as the reference; their cost grows with the gap widths, so keep
# the inputs narrow.


def ref_collapse(gaps) -> MonotoneElement:
    """The collapse of a finite gap set, one gap point at a time: x -> x minus the gaps below x."""
    segs = []
    prev = NEG_INF
    dropped = 0
    for g in sorted(set(gaps)):
        lo = prev + 1
        if lo <= g - 1:
            segs.append((lo, g - 1, -dropped))
        dropped += 1
        prev = g
    segs.append((prev + 1, POS_INF, -dropped))
    return MonotoneElement(segs)


def ref_idempotent(gaps) -> MonotoneElement:
    """The identity map off a finite gap set: the collapse's domain with offset 0."""
    return MonotoneElement([(lo, hi, 0) for lo, hi, _ in ref_collapse(gaps).segments])


def ref_from_gaps(dom_gaps, ran_gaps, k) -> MonotoneElement:
    """collapse(dom_gaps), then x -> x + k, then the inverse collapse of ran_gaps."""
    left = MonotoneElement([(lo, hi, o + k) for lo, hi, o in ref_collapse(dom_gaps).segments])
    return left * ref_collapse(ran_gaps).inverse()


def ref_free_cells(forced):
    """The integers missing from dom(forced), grouped by their bracketing domain points.

    Yields ((pred, succ), points): pred/succ are the nearest points of
    dom(forced) around the run, so any extension of forced must send the run's
    usable points strictly between the forced values at pred and succ.
    """
    gaps = sorted(forced.dom_gaps())
    cells = []
    i = 0
    while i < len(gaps):
        j = i
        while j + 1 < len(gaps) and gaps[j + 1] == gaps[j] + 1:
            j += 1
        cells.append(((gaps[i] - 1, gaps[j] + 1), gaps[i : j + 1]))
        i = j + 1
    return cells


def ref_solve_right_monotone(a, b) -> tuple:
    """Every monotone x with a * x == b, from the point cells of ref_free_cells, sorted by text."""
    if not a.dom_gaps() <= b.dom_gaps():
        return ()
    forced = a.inverse() * b
    free = a.ran_gaps()
    cell_options = []
    for (pred, succ), pts in ref_free_cells(forced):
        usable = [s for s in pts if s in free]
        values = range(forced(pred) + 1, forced(succ))
        opts = []
        for n in range(min(len(usable), len(values)) + 1):
            for chosen in combinations(usable, n):
                for vals in combinations(values, n):
                    opts.append(tuple(zip(chosen, vals)))
        cell_options.append(opts)
    out = []
    for combo in product(*cell_options):
        extra = [(x, x, v - x) for opt in combo for x, v in opt]
        out.append(normalize(list(forced.segments) + extra))
    return tuple(sorted(out, key=lambda e: e.to_text()))


def ref_solve_right_almost(a, b) -> tuple:
    """Every almost-monotone x with a * x == b, sorted by text: the almost-monotone solver as it was.

    It lists every range gap of a as a free point and every range gap of
    forced = a^-1 * b as a value, and extends forced by the window walk of
    ref_extend_almost; a and b are almost-monotone.
    """
    if not a.dom_gaps() <= b.dom_gaps():
        return ()
    forced = compose_almost(inverse_almost(a), b)
    free = sorted(a.ran_gaps())
    values = sorted(forced.ran_gaps())
    out = []
    for n in range(min(len(free), len(values)) + 1):
        for chosen in combinations(free, n):
            for vals in permutations(values, n):
                x = ref_extend_almost(forced, dict(zip(chosen, vals)))
                assert compose_almost(a, x) == b
                out.append(x)
    return tuple(sorted(out, key=lambda e: e.to_text()))


def ref_extent(elem, pins=()) -> int:
    """topology._extent as it read the window view: segment ends, or tails and middle."""
    m = 0
    for p in pins:
        m = max(m, abs(p))
    if isinstance(elem, MonotoneElement):
        for lo, hi, off in elem.segments:
            if lo != NEG_INF:
                m = max(m, abs(lo), abs(lo + off))
            if hi != POS_INF:
                m = max(m, abs(hi), abs(hi + off))
        return m
    m = max(
        m,
        abs(elem.left_end),
        abs(elem.right_start),
        abs(elem.left_end + elem.left_offset),
        abs(elem.right_start + elem.right_offset),
    )
    for k, v in elem.middle.items():
        m = max(m, abs(k), abs(v))
    return m


# -- point-by-point member samplers --------------------------------------------------
#
# topology.sample_member drawn point by point: every draw recomputes the pin
# values and reads the center's domain point by point over a window, and builds
# a monotone result through normalize.  The almost-monotone W and the H samplers
# are the window walks the library used before its per-neighborhood plans; the
# monotone W sampler makes the library's cuts and translations one point at a
# time over a box around the center's finite structure.  The planned draws must
# consume the rng exactly as these do and return the same members.


def ref_kept_points(c, pinvals, w, rng):
    kept = []
    for x in range(-w, w + 1):
        if x not in c:
            continue
        if x in pinvals or x in (-w, w) or rng.random() >= 0.25:
            kept.append(x)
    return kept


def ref_geometric_stream(rng):
    """Draws of P(k) = 2^-(k+1): the 0 bits before each 1 bit of random 64-bit words, read bit by bit from the low end."""
    zeros = 0
    while True:
        word = rng.getrandbits(64)
        for i in range(64):
            if word >> i & 1:
                yield zeros
                zeros = 0
            else:
                zeros += 1


def ref_cut_length(rng) -> int:
    """A draw of P(k) = (1/4)(3/4)^k: the 2-bit digits of random 64-bit words, low digit first, before the first 3."""
    k = 0
    while True:
        word = rng.getrandbits(64)
        for i in range(32):
            if word >> (2 * i) & 3 == 3:
                return k
            k += 1


REF_BOX_MARGIN = 100  # a cut reaching this far past the center's finite structure is a 2^-100 event


def _ref_zone_runs(c, pins, w):
    """Each zone's domain points in [-w, w] as runs of consecutive points: [points, infinite below, infinite above]."""
    zones = [[] for _ in range(len(pins) + 1)]
    z, prev = 0, None
    for x in range(-w, w + 1):
        if x in pins:
            z, prev = z + 1, None
            continue
        if x not in c:
            prev = None
            continue
        if prev is None:
            zones[z].append([[], x == -w, False])
        zones[z][-1][0].append(x)
        zones[z][-1][2] = x == w
        prev = x
    return zones


def ref_zones(anchors, runs, w):
    """core._zones point by point over [-w, w], where w exceeds every finite bound of the anchors and runs.

    Between two neighbouring anchors, the points of the runs strictly between
    their domains, grouped into maximal runs; a run that reaches -w or w goes
    on to infinity.  The value bounds are the largest image of the left
    anchor's points and the smallest of the right one's, infinite for an
    anchor with no point in the box.  ``runs`` must be maximal.
    """
    box = range(-w, w + 1)
    out = []
    for p, q in zip(anchors, anchors[1:]):
        left = [x + p[2] for x in box if p[0] <= x <= p[1]]
        right = [x + q[2] for x in box if q[0] <= x <= q[1]]
        zone = []
        for x in box:
            if p[1] < x < q[0] and any(lo <= x <= hi for lo, hi in runs):
                if zone and zone[-1][1] == x - 1:
                    zone[-1][1] = x
                else:
                    zone.append([x, x])
        zone = [(NEG_INF if lo == -w else lo, POS_INF if hi == w else hi) for lo, hi in zone]
        out.append((max(left, default=NEG_INF), min(right, default=POS_INF), zone))
    return out


def ref_sample_w_monotone(nbhd, rng):
    c = nbhd.center
    pins = sorted(nbhd.pins)
    w = ref_extent(c, pins) + REF_BOX_MARGIN
    geo = ref_geometric_stream(rng).__next__
    vals = {p: c(p) for p in pins}
    qs = [None, *(vals[p] for p in pins), None]
    tails = {}
    for (qlo, qhi), runs in zip(zip(qs, qs[1:]), _ref_zone_runs(c, set(pins), w)):
        # the ends in order, each run's lower end first: (run, anchor, up)
        ends = []
        for j, (pts, inf_lo, inf_hi) in enumerate(runs):
            if not inf_lo or inf_hi:
                ends.append((j, 0 if inf_lo else pts[0], True))
            if not inf_hi or inf_lo:
                ends.append((j, 1 if inf_hi else pts[-1] + 1, False))
        # one bit per end, lowest first: an end whose bit is set cuts 1 + g // 2 times
        flags = rng.getrandbits(len(ends)) if ends else 0
        # a cut removes points of its own run only, and splits it only between two of its points
        removed, splits = set(), set()
        for i, (j, anchor, up) in enumerate(ends):
            if not flags >> i & 1:
                continue
            own = set(runs[j][0])
            for _ in range(1 + geo() // 2):
                d, m = geo(), ref_cut_length(rng)
                a = anchor + d if up else anchor - d - m
                assert -w < a and a + m < w, "a cut left the reference box"
                removed.update(own.intersection(range(a, a + m)))
                if m == 0 and a in own and a - 1 in own:
                    splits.add(a)
        # the kept runs: consecutive kept points of one run, broken at removed points and splits
        kept = []
        for pts, inf_lo, inf_hi in runs:
            prev = None
            for x in pts:
                if x in removed:
                    prev = None
                    continue
                if prev is None or x in splits:
                    kept.append([[], x == -w and inf_lo, False])
                kept[-1][0].append(x)
                kept[-1][2] = x == w and inf_hi
                prev = x
        offsets = []
        if qhi is None:
            q = qlo
            for pts, _, _ in kept:
                k = geo()
                if q is None:
                    off = c(-w) + w - k if k and rng.getrandbits(1) else c(-w) + w + k
                else:
                    off = q + 1 + k - pts[0]
                offsets.append(off)
                q = pts[-1] + off
        elif qlo is None:
            q = qhi
            for pts, _, _ in reversed(kept):
                off = q - 1 - geo() - pts[-1]
                offsets.append(off)
                q = pts[0] + off
            offsets.reverse()
        elif kept:
            slack = qhi - qlo - 1 - sum(len(pts) for pts, _, _ in kept)
            shares = sorted(rng.randrange(slack + 1) for _ in kept) if slack else [0] * len(kept)
            v = qlo + 1
            for (pts, _, _), share in zip(kept, shares):
                offsets.append(v + share - pts[0])
                v += len(pts)
        for (pts, inf_lo, inf_hi), off in zip(kept, offsets):
            vals.update((x, x + off) for x in pts)
            if inf_lo:
                tails["lo"] = off
            if inf_hi:
                tails["hi"] = off
    raw = [(NEG_INF, -w - 1, tails["lo"]), (w + 1, POS_INF, tails["hi"])]
    raw += [(x, x, v - x) for x, v in vals.items()]
    return normalize(raw)


def assert_w_member(nbhd, elem):
    """elem is in the W neighborhood: dom elem inside dom center and the pins' values kept, checked on all of Z.

    Between consecutive breaks of the two maps each is one translation or
    undefined throughout, so comparing domains at the breaks, and at one
    point left of all of them, compares them everywhere.
    """
    c = nbhd.center
    pts = breaks(elem) | breaks(c) | set(nbhd.pins)
    pts.add(min(pts, default=0) - 1)
    for x in sorted(pts):
        assert elem(x) is None or c(x) is not None, f"{x} is in the draw's domain and not in the center's"
    for p in nbhd.pins:
        assert elem(p) == c(p), f"the draw moved the pin {p}"


def equal_outside(elem, c, r: int) -> bool:
    """elem(x) == c(x) for every integer x outside [-r, r], compared at the breaks of both maps."""
    pts = breaks(elem) | breaks(c) | {-r - 1, r + 1}
    pts.add(min(pts) - 1)
    return all(elem(x) == c(x) for x in pts if abs(x) > r)


def ref_box_members(c, pins, r: int = 2) -> set:
    """Every monotone element of U_c(pins) that equals c outside [-r, r], by brute force.

    Such a member keeps the pins' values and sends some of c's other domain
    points in the box increasingly to values strictly between the values of
    c at the nearest domain points outside the box.
    """
    below = next(x for x in range(-r - 1, -r - 1000, -1) if x in c)
    above = next(x for x in range(r + 1, r + 1000) if x in c)
    free = [x for x in range(-r, r + 1) if x in c and x not in pins]
    fixed = {p: c(p) for p in pins if -r <= p <= r}
    outside = [(lo, min(hi, -r - 1), o) for lo, hi, o in c.pieces if lo <= -r - 1]
    outside += [(max(lo, r + 1), hi, o) for lo, hi, o in c.pieces if hi >= r + 1]
    out = set()
    for k in range(len(free) + 1):
        for dom in combinations(free, k):
            for img in combinations(range(c(below) + 1, c(above)), k):
                vals = {**dict(zip(dom, img)), **fixed}
                xs = sorted(vals)
                if all(vals[s] < vals[t] for s, t in zip(xs, xs[1:])):
                    out.add(normalize(outside + [(x, x, v - x) for x, v in vals.items()]))
    return out


def ref_w_monotone_script(c, pins, x) -> dict:
    """Outcomes of the monotone W draw's random primitives under which it draws x, a member of U_c(pins).

    The primitives are the geometric stream (``stream``), the cut lengths
    (``lengths``), ``getrandbits(k)`` for the ends that cut and the sign of
    a zone with no pins (``bits``, as (k, value) pairs), and the slack
    shares ``randrange(slack + 1)`` (``shares``), each listed in the order
    the draw asks for it.  Every outcome lies in its primitive's
    support, so x is drawn with positive probability.  The structure is read
    point by point over a box, like ref_sample_w_monotone reads it: each
    maximal stretch of consecutive points of one run of c on which x is one
    translation is a run the draw keeps, and what lies between two of them
    is one cut, counted from the run's lower end when that end is finite.
    """
    pins = sorted(pins)
    w = max(ref_extent(c, pins), ref_extent(x)) + 4
    first = c(-w) + w
    vals = {p: c(p) for p in pins}
    qs = [None, *(vals[p] for p in pins), None]
    stream, lengths, bits, shares = [], [], [], []
    for (qlo, qhi), runs in zip(zip(qs, qs[1:]), _ref_zone_runs(c, set(pins), w)):
        ends, kept = [], []  # each end's cuts as (distance, length); the kept stretches
        for pts, inf_lo, inf_hi in runs:
            up = down = None
            if not inf_lo or inf_hi:
                up = len(ends)
                ends.append([])
            if not inf_hi or inf_lo:
                down = len(ends)
                ends.append([])
            subs = []  # [first point, last point, offset]
            for p in pts:
                y = x(p)
                if y is not None and subs and subs[-1][1] == p - 1 and subs[-1][2] == y - p:
                    subs[-1][1] = p
                elif y is not None:
                    subs.append([p, p, y - p])
            # x equals c near the box's edges, so it keeps the infinite ends
            assert not inf_lo or subs[0][0] == -w
            assert not inf_hi or subs[-1][1] == w
            # the points a..b - 1 between consecutive kept stretches, and around them at finite ends
            holes = [(s[1] + 1, t[0]) for s, t in zip(subs, subs[1:])]
            if not inf_lo and (not subs or subs[0][0] > pts[0]):
                holes.insert(0, (pts[0], subs[0][0] if subs else pts[-1] + 1))
            if not inf_hi and subs and subs[-1][1] < pts[-1]:
                holes.append((subs[-1][1] + 1, pts[-1] + 1))
            for a, b in holes:
                if not inf_lo:
                    ends[up].append((a - pts[0], b - a))
                elif not inf_hi:
                    ends[down].append((pts[-1] + 1 - b, b - a))
                elif a >= 0:
                    ends[up].append((a, b - a))
                elif b <= 1:
                    ends[down].append((1 - b, b - a))
                else:
                    ends[down].append((0, 1 - a))
                    ends[up].append((1, b - 1))
            kept += subs
        if ends:
            bits.append((len(ends), sum(1 << i for i, e in enumerate(ends) if e)))
        for e in ends:
            if e:
                stream.append(2 * (len(e) - 1))
            for d, m in e:
                stream.append(d)
                lengths.append(m)
        if qhi is None:
            q = qlo
            for lo, hi, off in kept:
                if q is None:
                    stream.append(abs(off - first))
                    if off != first:
                        bits.append((1, int(off < first)))
                else:
                    stream.append(lo + off - q - 1)
                q = hi + off
        elif qlo is None:
            q = qhi
            for lo, hi, off in reversed(kept):
                stream.append(q - 1 - hi - off)
                q = lo + off
        elif kept:
            slack = qhi - qlo - 1 - sum(hi - lo + 1 for lo, hi, _ in kept)
            v = qlo + 1
            for lo, hi, off in kept:
                if slack:
                    shares.append(lo + off - v)
                v += hi - lo + 1
    return {"stream": stream, "lengths": lengths, "bits": bits, "shares": shares}


def ref_sample_w_almost(nbhd, rng):
    c = nbhd.center
    w = ref_extent(c, nbhd.pins) + 4
    pinvals = {x: c(x) for x in nbhd.pins}
    kept = ref_kept_points(c, pinvals, w, rng)
    interior = [x for x in kept if -w < x < w and x not in pinvals]
    anchor_lo = min(pinvals.values(), default=0)
    anchor_hi = max(pinvals.values(), default=0)
    vleft = anchor_lo - len(kept) - rng.randint(1, 3)
    vright = anchor_hi + len(kept) + rng.randint(1, 3)
    pool = [v for v in range(vleft + 1, vright) if v not in pinvals.values()]
    chosen = rng.sample(pool, len(interior))
    mid = dict(pinvals)
    mid.update(zip(interior, chosen))
    mid = {x: v for x, v in mid.items() if -w < x < w}
    return make_almost(-w, vleft + w, w, vright - w, mid)


def _ref_perm_of_cofinite(gaps, moved: dict):
    pts = set(moved) | set(gaps)
    if not pts:
        return make_almost(0, 0, 1, 0, {})
    d, u = min(pts) - 1, max(pts) + 1
    mid = {x: moved.get(x, x) for x in range(d + 1, u) if x not in gaps}
    return make_almost(d, 0, u, 0, mid)


def _ref_random_perm(points, rng):
    pts = sorted(points)
    n = rng.randint(0, min(4, len(pts)))
    chosen = rng.sample(pts, n)
    img = chosen[:]
    rng.shuffle(img)
    return {x: y for x, y in zip(chosen, img) if x != y}


def ref_sample_h_member(nbhd, rng):
    c = _ref_as_almost(nbhd.center)
    w = ref_extent(c, nbhd.pins) + 3
    dom_pool = [x for x in range(-w, w + 1) if x in c and x not in nbhd.pins]
    pin_images = {c(x) for x in nbhd.pins}
    cinv = ref_inverse_almost(c)
    ran_pool = [y for y in range(-w, w + 1) if y in cinv and y not in pin_images]
    sigma = _ref_perm_of_cofinite(c.dom_gaps(), _ref_random_perm(dom_pool, rng))
    rho = _ref_perm_of_cofinite(c.ran_gaps(), _ref_random_perm(ran_pool, rng))
    return ref_compose_almost(ref_compose_almost(sigma, c), rho)


def ref_sample_member(nbhd, rng):
    if nbhd.flavor == "H":
        return ref_sample_h_member(nbhd, rng)
    if isinstance(nbhd.center, MonotoneElement):
        return ref_sample_w_monotone(nbhd, rng)
    return ref_sample_w_almost(nbhd, rng)


# -- the two-pass kernel and the call-per-segment checks ---------------------------------
#
# _kernel.compose_segments merges each piece as it emits it and walks or
# bisects for the right factor's pieces, and core._check_canonical and
# core.normalize check plain-int segments inline.  The references: every
# piece of a against every piece of b, then a separate merge pass over the
# whole output; and a _check_segment call for every segment.


def ref_composite_pieces(a, b) -> list:
    """Every overlap piece of 'a then b', in a's order, unmerged; a may come in any order."""
    out = []
    for lo, hi, off in a:
        for blo, bhi, boff in b:
            s_lo = max(lo + off, blo)
            s_hi = min(hi + off, bhi)
            if s_lo <= s_hi:
                out.append((s_lo - off, s_hi - off, off + boff))
    return out


def ref_compose_segments(a, b) -> list:
    """The two-pass kernel: the first pass, then the merge of touching equal-offset neighbours."""
    return ref_merge_pieces(ref_composite_pieces(a, b))


def ref_merge_pieces(pieces) -> list:
    """The merge of touching equal-offset neighbours, re-reading the last output piece each time."""
    merged = []
    for lo, hi, off in pieces:
        if merged:
            plo, phi, poff = merged[-1]
            if poff == off and phi + 1 == lo:
                merged[-1] = (plo, hi, poff)
                continue
        merged.append((lo, hi, off))
    return merged


def ref_to_text(elem) -> str:
    """Canonical text as the f-string writers made it, for either element class."""
    p = elem.pieces
    if isinstance(elem, AlmostMonotoneElement):
        d, u = (p[0][1], p[-1][0]) if len(p) > 1 else (0, 1)
        body = f"d={d},L={p[0][2]},u={u},R={p[-1][2]}"
        pairs = ", ".join([f"{x}->{x + off}" for lo, hi, off in p[1:-1] for x in range(lo, hi + 1)])
        return f"am[{body}; {pairs}]" if pairs else f"am[{body};]"
    if len(p) == 1:
        return "id" if p[0][2] == 0 else f"shift({p[0][2]})"
    if elem.is_idempotent():
        return "E{" + ",".join(str(g) for g in sorted(elem.dom_gaps())) + "}"
    return ref_seg_text(elem)


def ref_seg_text(elem) -> str:
    """MonotoneElement.to_seg_text as the f-string writer made it."""
    segs = elem.pieces
    if len(segs) == 1:
        return f"seg[(-inf..+inf,{segs[0][2]:+d})]"
    _, first_hi, first_o = segs[0]
    last_lo, _, last_o = segs[-1]
    parts = [f"(-inf..{first_hi},{first_o:+d})"]
    parts += [f"({lo}..{hi},{o:+d})" for lo, hi, o in segs[1:-1]]
    parts.append(f"({last_lo}..+inf,{last_o:+d})")
    return "seg[" + ",".join(parts) + "]"


def ref_check_canonical(segs):
    if not segs:
        raise InvalidElementError("an element needs at least one segment")
    for lo, hi, offset in segs:
        _check_segment(lo, hi, offset)
    if segs[0].lo != NEG_INF:
        raise InvalidElementError("leftmost segment must extend to -inf")
    if segs[-1].hi != POS_INF:
        raise InvalidElementError("rightmost segment must extend to +inf")
    for (lo1, hi1, o1), (lo2, hi2, o2) in zip(segs, segs[1:]):
        if not hi1 < lo2:
            raise InvalidElementError("segments overlap or are out of order")
        if not hi1 + o1 < lo2 + o2:
            raise InvalidElementError("segment images overlap or are out of order")
        if hi1 + 1 == lo2 and o1 == o2:
            raise InvalidElementError("adjacent segments with equal offset must be merged")


def ref_normalize(raw) -> MonotoneElement:
    segs = [Segment(*s) for s in raw]
    if not segs:
        raise InvalidElementError("an element needs at least one segment")
    for lo, hi, offset in segs:
        _check_segment(lo, hi, offset)
    segs.sort(key=lambda s: (s.lo, s.hi))
    merged = [segs[0]]
    for seg in segs[1:]:
        prev = merged[-1]
        if not prev.hi < seg.lo:
            raise InvalidElementError("segments overlap or are out of order")
        if prev.hi + 1 == seg.lo and prev.offset == seg.offset:
            merged[-1] = Segment(prev.lo, seg.hi, prev.offset)
        else:
            if not prev.hi + prev.offset < seg.lo + seg.offset:
                raise InvalidElementError("segment images overlap or are out of order")
            merged.append(seg)
    if merged[0].lo != NEG_INF:
        raise InvalidElementError("leftmost segment must extend to -inf")
    if merged[-1].hi != POS_INF:
        raise InvalidElementError("rightmost segment must extend to +inf")
    return MonotoneElement._trusted(tuple(merged))


# -- point-by-point references for the entry checks of gap sets, middles and supports ----
#
# core._check_gaps, almost._checked_pieces and almost.unit_recompose accept
# plain ints in whole-collection passes and fall back to the loops below
# only when a pass fails.  These are those loops as the only check: one call
# per gap, per middle entry or per support pair.  The merge at the end is the
# kernel's, as in almost; what the references stand for is the checks.


def _ref_is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def ref_check_gaps(gaps):
    """Reject a set of gap positions at its first non-integer, in iteration order."""
    for g in filterfalse(_ref_is_int, gaps):
        raise InvalidElementError(f"gap positions must be integers, got {g!r}")


def ref_checked_pieces(d, dl, u, ur, middle) -> tuple:
    """almost._checked_pieces with every middle entry checked in turn."""
    mid = _middle_dict(middle)
    for v in (d, dl, u, ur):
        if not _ref_is_int(v):
            raise InvalidElementError("tail data must be integers")
    if d >= u:
        raise InvalidElementError("left end of the window must lie below the right start")
    if d + dl >= u + ur:
        raise InvalidElementError("tail images collide: left image must end below the right image")
    seen = set()
    for k, v in mid.items():
        if not (_ref_is_int(k) and _ref_is_int(v)):
            raise InvalidElementError("middle entries must be integer pairs")
        if not d < k < u:
            raise InvalidElementError(f"middle point {k} outside the open window ({d}, {u})")
        if not d + dl < v < u + ur:
            raise InvalidElementError(f"middle value {v} collides with a tail image")
        if v in seen:
            raise InvalidElementError(f"middle is not injective: value {v} repeated")
        seen.add(v)
    raw = [(NEG_INF, d, dl)]
    raw += [(k, k, v - k) for k, v in sorted(mid.items())]
    raw.append((u, POS_INF, ur))
    return tuple(_kernel.merge_pieces(raw))


def ref_unit_recompose(dec) -> AlmostMonotoneElement:
    """almost.unit_recompose with every support pair checked in turn."""
    support = dec.support_perm
    if not all(isinstance(p, (tuple, list)) and len(p) == 2 and all(map(_ref_is_int, p)) for p in support):
        raise InvalidElementError("support permutation entries must be integer pairs")
    perm = dict(support)
    if len(perm) != len(support):
        raise InvalidElementError("support permutation repeats a point")
    if set(perm.values()) != set(perm):
        raise InvalidElementError("support permutation is not a bijection of its support")
    if any(v == k for k, v in perm.items()):
        raise InvalidElementError("support permutation lists a fixed point")
    k = dec.shift
    if not _ref_is_int(k):
        raise InvalidElementError("shift must be an integer")
    if not perm:
        return AlmostMonotoneElement._trusted(ref_checked_pieces(0, k, 1, k, {}))
    lo, hi = min(perm), max(perm)
    mid = {x: perm.get(x, x) + k for x in range(lo, hi + 1)}
    return AlmostMonotoneElement._trusted(ref_checked_pieces(lo - 1, k, hi + 1, k, mid))


# -- the regex literal readers, the reference for parse_element and parse_almost ----------

_SEG_RE = re.compile(r"seg\[(.*)\]\Z", re.DOTALL)
_ONE_SEG = r"\(\s*(?:-inf|[+-]?\d+)\s*\.\.\s*(?:\+inf|[+-]?\d+)\s*,\s*[+-]?\d+\s*\)"
_SEG_BODY_RE = re.compile(rf"\s*{_ONE_SEG}(?:\s*,\s*{_ONE_SEG})*\s*\Z")
_ONE_SEG_RE = re.compile(
    r"\(\s*(-inf|[+-]?\d+)\s*\.\.\s*(\+inf|[+-]?\d+)\s*,\s*([+-]?\d+)\s*\)"
)


def _ref_quoted(text: str) -> str:
    """How a message quotes a literal: whole up to 200 characters, else its first 200 and its length."""
    if len(text) > 200:
        return repr(text[:200]) + f"... ({len(text)} characters)"
    return repr(text)


def _parse_bound(text: str):
    if text == "-inf":
        return NEG_INF
    if text == "+inf":
        return POS_INF
    return int(text)


def _parse_element_by_regex(text: str) -> MonotoneElement:
    """The regex reader of every spelling, the reference for ``core.parse_element``."""
    s = text.strip()
    if s == "id":
        return identity()
    m = _SHIFT_RE.match(s)
    if m:
        try:
            k = int(m.group(1))
        except ValueError:
            raise InvalidElementError(f"not an element literal: {_ref_quoted(text)}") from None
        return shift(k)
    m = _EGAPS_RE.match(s)
    if m:
        body = m.group(1).strip()
        try:
            gaps = [int(p) for p in body.split(",")] if body else []
        except ValueError:
            raise InvalidElementError(f"malformed gap list: {_ref_quoted(text)}") from None
        # point input: the collapse cache is keyed on points, and zeroing its offsets leaves the idempotent
        segs = _collapse_cached(tuple(sorted(set(gaps)))).pieces
        return MonotoneElement._trusted([(lo, hi, 0) for lo, hi, _ in segs])
    m = _SEG_RE.match(s)
    if m:
        body = m.group(1)
        if not _SEG_BODY_RE.match(body):
            raise InvalidElementError(f"malformed segment list: {_ref_quoted(text)}")
        try:
            # the regex admits only digits, so int fails only past the interpreter's digit limit
            segs = [(_parse_bound(lo), _parse_bound(hi), int(off)) for lo, hi, off in _ONE_SEG_RE.findall(body)]
        except ValueError:
            raise InvalidElementError(f"malformed segment list: {_ref_quoted(text)}") from None
        return normalize(segs)
    raise InvalidElementError(f"not an element literal: {_ref_quoted(text)}")


_AM_RE = re.compile(
    r"am\[" + ",".join(rf"\s*{name}\s*=\s*([+-]?\d+)\s*" for name in "dLuR") + r";(.*)\]\Z",
    re.DOTALL,
)
_PAIR_RE = re.compile(r"([+-]?\d+)\s*->\s*([+-]?\d+)\Z")


def _parse_almost_by_regex(text: str) -> AlmostMonotoneElement:
    """The regex reader of every spelling, the reference for ``almost.parse_almost``."""
    m = _AM_RE.match(text.strip())
    if not m:
        raise InvalidElementError(f"not an almost-monotone literal: {_ref_quoted(text)}")
    try:
        # the regex admits only digits, so int fails only past the interpreter's digit limit
        d, dl, u, ur = map(int, m.group(1, 2, 3, 4))
    except ValueError:
        raise InvalidElementError(f"not an almost-monotone literal: {_ref_quoted(text)}") from None
    body = m.group(5).strip()
    # lazily, so a malformed entry and a repeated point are reported in text order
    pairs = (_parse_pair(part.strip()) for part in body.split(",")) if body else ()
    return make_almost(d, dl, u, ur, pairs)


def _parse_pair(text: str) -> tuple:
    pm = _PAIR_RE.match(text)
    if pm:
        # int fails only past the interpreter's digit limit
        try:
            return int(pm.group(1)), int(pm.group(2))
        except ValueError:
            pass
    raise InvalidElementError(f"malformed middle entry: {_ref_quoted(text)}")
