"""Independent correctness oracles for the benchmark.

Nothing here calls the arithmetic under test.  An element is read through its
raw normal-form data (segment triples for a monotone element; tails plus the
middle dict for an almost-monotone one) and evaluated point by point; composites
and inverses are checked by dict composition over explicit point windows, in
the style of the test suite's pointwise helpers.

Every ``check_*`` function returns None when the result is right and a short
message otherwise.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb, factorial, inf

# A window wider than this is checked at its breakpoints only; both maps are
# translations between consecutive breakpoints, so that check is still complete.
FULL_WINDOW = 20_000


class PointMap:
    """Pointwise view of an element built from its raw data only."""

    __slots__ = ("monotone", "los", "segs", "d", "dl", "u", "ur", "mid")

    def __init__(self, elem):
        if hasattr(elem, "segments"):
            self.monotone = True
            self.segs = [tuple(s) for s in elem.segments]
            self.los = [s[0] for s in self.segs]
        else:
            self.monotone = False
            self.d, self.dl = elem.left_end, elem.left_offset
            self.u, self.ur = elem.right_start, elem.right_offset
            self.mid = dict(elem.middle)

    def __call__(self, x):
        if x is None:
            return None
        if self.monotone:
            lo, hi, off = self.segs[bisect_right(self.los, x) - 1]
            return x + off if x <= hi else None
        if x <= self.d:
            return x + self.dl
        if x >= self.u:
            return x + self.ur
        return self.mid.get(x)

    def preimage(self, y):
        for off in self.offsets():
            if self(y - off) == y:
                return y - off
        return None

    def offsets(self):
        """Every translation offset the map uses on some piece."""
        if self.monotone:
            return {off for _, _, off in self.segs}
        return {self.dl, self.ur} | {v - k for k, v in self.mid.items()}

    def tails(self):
        if self.monotone:
            return self.segs[0][2], self.segs[-1][2]
        return self.dl, self.ur

    def breakpoints(self):
        """Finite domain points where the map may change form, and their images."""
        dom, img = set(), set()
        if self.monotone:
            for lo, hi, off in self.segs:
                for v in (lo, hi):
                    if v not in (inf, -inf):
                        dom.add(v)
                        img.add(v + off)
        else:
            dom.update((self.d, self.u))
            img.update((self.d + self.dl, self.u + self.ur))
            dom.update(self.mid)
            img.update(self.mid.values())
        return dom, img

    def span(self):
        """(lo, hi) bracketing every finite breakpoint and image."""
        dom, img = self.breakpoints()
        pts = dom | img
        if not pts:
            return 0, 0
        return min(pts), max(pts)


def _window(points, margin=2):
    """Explicit window around the points: dense when small, breakpoints +-margin otherwise."""
    lo, hi = min(points), max(points)
    if hi - lo <= FULL_WINDOW:
        return range(lo - margin, hi + margin + 1)
    out = set()
    for p in points:
        out.update(range(p - margin, p + margin + 1))
    return sorted(out)


def window_dict(f: PointMap, xs) -> dict:
    out = {}
    for x in xs:
        y = f(x)
        if y is not None:
            out[x] = y
    return out


def compose_dicts(f: dict, g) -> dict:
    """Pointwise 'f then g' for a dict f and a PointMap g."""
    out = {}
    for x, y in f.items():
        z = g(y)
        if z is not None:
            out[x] = z
    return out


def _composite_window(*maps: PointMap):
    """Window holding every breakpoint of the maps and their preimages under the earlier maps."""
    pts = {0}
    shift = [0]
    for f in maps:
        dom, img = f.breakpoints()
        for p in dom:
            pts.update(p - s for s in shift)
        shift = sorted({s + t for s in shift for t in f.offsets()})
        pts.update(img)
    return _window(pts, margin=3)


def _same_map(result, *factors) -> str | None:
    """result == factors[0] * factors[1] * ... pointwise, on a window and on both tails."""
    maps = [PointMap(f) for f in factors]
    r = PointMap(result)
    xs = _composite_window(r, *maps)
    want = window_dict(maps[0], xs)
    for g in maps[1:]:
        want = compose_dicts(want, g)
    got = window_dict(r, xs)
    if got != want:
        bad = sorted(set(got.items()) ^ set(want.items()))[:3]
        return f"pointwise mismatch, e.g. {bad}"
    tl = sum(m.tails()[0] for m in maps), sum(m.tails()[1] for m in maps)
    if r.tails() != tl:
        return f"tail offsets {r.tails()} != {tl}"
    return None


def check_compose(result, *factors):
    return _same_map(result, *factors)


def check_same(result, elem):
    """result is the same map as elem (possibly in the other representation)."""
    return _same_map(result, elem)


def check_inverse(result, elem):
    f, r = PointMap(elem), PointMap(result)
    dom, img = f.breakpoints()
    rdom, rimg = r.breakpoints()
    xs = _window(dom | img | rdom | rimg | {0}, margin=3)
    fwd = window_dict(f, xs)
    back = window_dict(r, xs)
    for x, y in fwd.items():
        if r(y) != x:
            return f"inverse sends {y} to {r(y)}, expected {x}"
    for y, x in back.items():
        if f(x) != y:
            return f"inverse sends {y} to {x}, but the element sends {x} to {f(x)}"
    if r.tails() != tuple(-t for t in f.tails()):
        return f"tail offsets {r.tails()} are not the negated {f.tails()}"
    return None


def _scan(f: PointMap):
    """(finite window, {image: preimage}) with the domain scanned wide enough to reach every image in the window."""
    lo, hi = f.span()
    reach = max(abs(o) for o in f.offsets()) + 3
    pre = {}
    for x in range(lo - reach, hi + reach + 1):
        y = f(x)
        if y is not None:
            pre[y] = x
    return range(lo - 2, hi + 3), pre


def gap_sets(elem):
    """(domain gaps, range gaps) by scanning the finite window point by point."""
    f = PointMap(elem)
    xs, pre = _scan(f)
    dom_gaps = frozenset(x for x in xs if f(x) is None)
    ran_gaps = frozenset(y for y in xs if y not in pre)
    return dom_gaps, ran_gaps


def check_gaps(result, elem):
    want = gap_sets(elem)
    got = (frozenset(result[0]), frozenset(result[1]))
    return None if got == want else f"gap sets {got} != {want}"


def check_from_gaps(result, dgaps, rgaps, left_offset):
    got = gap_sets(result)
    if got != (frozenset(dgaps), frozenset(rgaps)):
        return f"gap sets {got} != {(sorted(dgaps), sorted(rgaps))}"
    if PointMap(result).tails()[0] != left_offset:
        return f"left offset {PointMap(result).tails()[0]} != {left_offset}"
    return None


def check_idempotent(result, gaps):
    f = PointMap(result)
    if f.tails() != (0, 0):
        return "idempotent with a nonzero tail"
    lo, hi = f.span()
    for x in range(min(lo, min(gaps, default=0)) - 2, max(hi, max(gaps, default=0)) + 3):
        want = None if x in gaps else x
        if f(x) != want:
            return f"idempotent sends {x} to {f(x)}, expected {want}"
    return None


def check_structural(result, elem):
    """Known answer that must hold as structural (normal form) equality."""
    a = result.segments if hasattr(result, "segments") else None
    b = elem.segments if hasattr(elem, "segments") else None
    if a is None or b is None or tuple(map(tuple, a)) != tuple(map(tuple, b)):
        return f"{result!r} != {elem!r}"
    return None


def signature(elem):
    return PointMap(elem).tails()


def is_monotone_map(elem) -> bool:
    f = PointMap(elem)
    if f.monotone:
        return True
    vals = [f.mid[k] for k in sorted(f.mid)]
    return all(a < b for a, b in zip(vals, vals[1:]))


# -- bicyclic generators, defined pointwise ------------------------------------------


def generator_map(n, orientation, letter):
    if orientation == "+":
        if letter == "p":
            return lambda x: x if x <= n else x + 1
        return lambda x: x if x <= n else (None if x == n + 1 else x - 1)
    if letter == "p":
        return lambda x: x - 1 if x <= n - 1 else x
    return lambda x: x + 1 if x <= n - 2 else (None if x == n - 1 else x)


def check_word(result, n, orientation, letters):
    f = PointMap(result)
    gens = {c: generator_map(n, orientation, c) for c in "pq"}
    reach = len(letters) + 3
    for x in range(n - reach, n + reach + 1):
        y = x
        for c in letters:
            if y is None:
                break
            y = gens[c](y)
        if f(x) != y:
            return f"word {letters} sends {x} to {y}, element gives {f(x)}"
    return None


# -- almost-monotone known answers ------------------------------------------------------


def lis_length(vals) -> int:
    best = []
    for j, v in enumerate(vals):
        best.append(1 + max((best[i] for i in range(j) if vals[i] < v), default=0))
    return max(best, default=0)


def check_min_exceptions(result, elem):
    f = PointMap(elem)
    keys = sorted(f.mid)
    vals = [f.mid[k] for k in keys]
    need = len(vals) - lis_length(vals)
    if len(result) != need:
        return f"{len(result)} exceptions, minimum is {need}"
    kept = [f.mid[k] for k in keys if k not in result]
    if any(a >= b for a, b in zip(kept, kept[1:])):
        return "removing the exceptions does not leave a monotone map"
    return None


def check_monotonizers(result, elem):
    left, right, both = result
    f = PointMap(elem)
    lo, hi = f.span()
    xs = range(lo - 2, hi + 3)
    kept = [f(x) for x in xs if f(x) is not None and x not in left.gaps]
    if any(a >= b for a, b in zip(kept, kept[1:])):
        return "left monotonizer leaves an order violation"
    kept = [f(x) for x in xs if f(x) is not None and f(x) not in right.gaps]
    if any(a >= b for a, b in zip(kept, kept[1:])):
        return "right monotonizer leaves an order violation"
    if both.gaps != left.gaps | right.gaps:
        return "two-sided monotonizer is not the meet"
    return None


def check_unit_decompose(result, elem):
    perm, k = dict(result.support_perm), result.shift
    f = PointMap(elem)
    lo, hi = f.span()
    for x in range(lo - 2, hi + 3):
        if f(x) != perm.get(x, x) + k:
            return f"unit sends {x} to {f(x)}, decomposition gives {perm.get(x, x) + k}"
    return None


def check_witness(result, a, b):
    fa, fb, fe = PointMap(a), PointMap(b), PointMap(result)
    if fe.tails() != (0, 0):
        return "witness is not an idempotent"
    lo = min(fa.span()[0], fb.span()[0], fe.span()[0]) - 3
    hi = max(fa.span()[1], fb.span()[1], fe.span()[1]) + 3
    for x in range(lo, hi + 1):
        if fe(fa(x)) != fe(fb(x)):
            return f"a*e and b*e differ at {x}"
        y = fe(x)
        if y is not None and y != x:
            return "witness is not an idempotent"
    return None


# -- equation solving ------------------------------------------------------------------


def monotone_family_count(n: int) -> int:
    """|{x : E{0..n-1} * x == E{0..n-1}}| in the monotone monoid: C(2n, n)."""
    return comb(2 * n, n)


def almost_solution_count(f: int, v: int) -> int:
    """Solutions of a*x == b in the almost-monotone monoid with dom gaps of a inside those of b.

    x is forced on ran(a) and free to send any k of the f range gaps of a
    injectively onto k of the v range gaps of b.
    """
    return sum(comb(f, k) * comb(v, k) * factorial(k) for k in range(min(f, v) + 1))


def check_solutions(sols, a, b, side, expected=None):
    """Every x solves a*x == b (side 'right') or x*a == b (side 'left'); no repeats."""
    if expected is not None and len(sols) != expected:
        return f"{len(sols)} solutions, expected {expected}"
    if len(set(sols)) != len(sols):
        return "repeated solutions"
    for x in sols:
        msg = _same_map(b, a, x) if side == "right" else _same_map(b, x, a)
        if msg:
            return f"solution {x!r} fails: {msg}"
    return None


# -- topology ---------------------------------------------------------------------------


def check_product_cover(result, a, b, pins):
    f1, f2 = result
    fa = PointMap(a)
    bdg = gap_sets(b)[0]
    escapes = {fa.preimage(y) for y in bdg} - {None}
    if set(f1) != set(pins) | escapes:
        return f"first pin set {sorted(f1)} != {sorted(set(pins) | escapes)}"
    if set(f2) != {fa(x) for x in pins}:
        return "second pin set is not the image of the pins"
    return None


def check_inverse_cover(result, g, pins):
    src, tgt = result
    f = PointMap(g)
    pre = _scan(f)[1]
    image = sorted(pre)
    brackets = set()
    for r in gap_sets(g)[1]:
        i = bisect_right(image, r)
        brackets.add(pre[image[i - 1]])
        brackets.add(pre[image[i]])
    if set(src) != set(pins) | brackets:
        return f"source pins {sorted(src)[:6]} != {sorted(set(pins) | brackets)[:6]}"
    if set(tgt) != {f(x) for x in src}:
        return "target pins are not the image of the source pins"
    return None


def check_separate(result, a, b):
    f1, f2 = result
    fa, fb = PointMap(a), PointMap(b)
    if len(f1) == 1 and f1 == f2:
        (x,) = f1
        if fa(x) is None or fb(x) is None or fa(x) == fb(x):
            return f"pin {x} does not separate"
        return None
    if len(f1) == 1 and not f2:
        (x,) = f1
        return None if fa(x) is not None and fb(x) is None else f"pin {x} does not separate"
    if len(f2) == 1 and not f1:
        (x,) = f2
        return None if fb(x) is not None and fa(x) is None else f"pin {x} does not separate"
    return f"malformed separation {result}"


def check_member(result, center, pins, elem):
    fc, fe = PointMap(center), PointMap(elem)
    want = gap_sets(center)[0] <= gap_sets(elem)[0] and all(fc(x) == fe(x) for x in pins)
    return None if result == want else f"membership {result}, expected {want}"


def check_bool(result, want):
    return None if result is want else f"{result}, expected {want}"
