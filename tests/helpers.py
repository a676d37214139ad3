"""Shared independent oracles for the test suite.

Everything here works pointwise on explicit integer windows or by exhaustive
enumeration, never through the segment arithmetic under test.
"""

from itertools import combinations

from cofinj.core import NEG_INF, POS_INF, MonotoneElement, element_from_gaps


def finite_bound(elem) -> int:
    m = 0
    if isinstance(elem, MonotoneElement):
        for lo, hi, off in elem.segments:
            if lo != NEG_INF:
                m = max(m, abs(lo), abs(lo + off))
            if hi != POS_INF:
                m = max(m, abs(hi), abs(hi + off))
        return m
    m = max(
        abs(elem.left_end),
        abs(elem.right_start),
        abs(elem.left_end + elem.left_offset),
        abs(elem.right_start + elem.right_offset),
    )
    for k, v in elem.middle.items():
        m = max(m, abs(k), abs(v))
    return m


def window_bound(*elems) -> int:
    return 4 * max((finite_bound(e) for e in elems), default=0) + 8


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


def enumerate_monotone(dom_positions, max_dom, ran_positions, max_ran, offsets):
    """Every canonical element with gap sets inside the given position pools.

    An element is determined by (domain gaps, range gaps, left tail offset),
    so this walks the whole parameter box; both resulting tail offsets must
    lie in ``offsets``.
    """
    offsets = sorted(offsets)
    for nd in range(max_dom + 1):
        for dgaps in combinations(dom_positions, nd):
            for nr in range(max_ran + 1):
                for rgaps in combinations(ran_positions, nr):
                    for left in offsets:
                        if left + nr - nd in offsets:
                            yield element_from_gaps(dgaps, rgaps, left)


# -- pointwise checks on all of Z, for elements of any width ---------------------------


def breaks(elem) -> set:
    """Each finite segment start of elem, and each point just after a finite segment end.

    Between two consecutive breaks the map is one translation or undefined
    throughout.
    """
    return {b for lo, hi, _ in elem.segments for b in (lo, hi + 1) if b not in (NEG_INF, POS_INF)}


def image_breaks(elem) -> set:
    """The breaks of elem's inverse map, read off elem's segments."""
    return {b + o for lo, hi, o in elem.segments for b in (lo, hi + 1) if b not in (NEG_INF, POS_INF)}


def preimage(elem, y):
    """The x with elem(x) == y, or None; tries one candidate per segment offset."""
    for _, _, o in elem.segments:
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
