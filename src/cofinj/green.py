"""Green's relations and the structure they expose: D-class witnesses between
arbitrary idempotents, the two-sided factorization through any element, and
exact finite solution sets for one-sided equations.

Both element kinds (monotone and almost-monotone) are accepted wherever gaps
determine the answer.  Gap sets are read as sorted maximal runs, so the cost
of the R/L/H relations, the factorization and the H-class members does not
grow with the gap widths.  One solver enumerates the full (finite) solution
set of a*x == b or x*a == b, inside the monotone monoid or inside the
almost-monotone one, and it enumerates x itself on either side.  It reads its
cells off gap runs: a monotone cell is a zone of ``core._zones`` between two
neighbouring forced pieces, the zone model that the monotone W draw reads
too.  It lists a cell's points only when the cell has room for an extra
point.  It walks the tree of extensions of the forced map, where each
candidate is its parent plus one point piece, so a candidate costs a copy of
its pieces and its check against the full product.  The solutions
come back ordered by their pieces, so no solution's text is built.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial

from . import _kernel
from .core import (
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    _check_element,
    _from_runs,
    _idempotent_arg,
    _image_gaps,
    _inverted,
    _lo,
    _run_ints,
    _runs_within,
    _zones,
)
from . import almost as _almost

_AM = _almost.AlmostMonotoneElement


def r_equiv(a, b) -> bool:
    """Same principal right ideal, i.e. equal domains."""
    _check_element(a, "a")
    _check_element(b, "b")
    return a._dom_runs() == b._dom_runs()


def l_equiv(a, b) -> bool:
    """Same principal left ideal, i.e. equal ranges."""
    _check_element(a, "a")
    _check_element(b, "b")
    return a._ran_runs() == b._ran_runs()


def h_equiv(a, b) -> bool:
    # r_equiv checks both arguments
    return r_equiv(a, b) and l_equiv(a, b)


def connect_idempotents(eps: IdempotentGaps, phi: IdempotentGaps, i: int) -> MonotoneElement:
    """An element a with a * a.inverse() == eps and a.inverse() * a == phi.

    Built as collapse(eps gaps), then shift(i), then the inverse collapse of
    phi's gaps; distinct i give distinct elements, so every idempotent pair
    is connected by infinitely many of these.
    """
    return _from_runs(_idempotent_arg(eps, "eps").runs, _idempotent_arg(phi, "phi").runs, i)


def factorize_simple(gamma: MonotoneElement, phi: MonotoneElement):
    """A pair (kappa, xi) with kappa * phi * xi == gamma.

    Existence for arbitrary gamma, phi is exactly the absence of proper
    two-sided ideals.  kappa re-indexes dom(gamma) onto dom(phi) through the
    canonical collapses; xi is then forced.
    """
    _check_element(gamma, "gamma")
    _check_element(phi, "phi")
    kappa = _from_runs(gamma._dom_runs(), phi._dom_runs(), 0)
    xi = (kappa * phi).inverse() * gamma
    return kappa, xi


def h_class_members(elem: MonotoneElement, alignments) -> list:
    """The members of the monotone H-class of elem at the given left-tail offsets."""
    _check_element(elem, "elem")
    d, r = elem._dom_runs(), elem._ran_runs()
    return [_from_runs(d, r, k) for k in alignments]


# -- finite equation solving ------------------------------------------------------


def solve_right(a, b, within: str | None = None):
    """All x with a * x == b, as a tuple sorted by ``pieces``.

    ``within`` picks the monoid to solve in ("monotone" or "almost"); by
    default it is "almost" as soon as either input is almost-monotone.  Every
    solution extends the forced partial map a.inverse()*b by finitely many
    points taken from the complement of ran(a), which keeps the set finite.
    The order is that of the solutions' piece tuples, which depends on the
    solution set alone; sort by ``to_text`` for the order of the printed text.
    """
    return _solve(a, b, within, False)


def solve_left(a, b, within: str | None = None):
    """All x with x * a == b, as a tuple sorted by ``pieces``, as in solve_right.

    Every solution extends the forced partial map b*a.inverse() by finitely
    many points of dom(b)'s complement, sent into the gaps of dom(a).  The
    solutions are enumerated and checked as they are, with x * a, not as the
    inverses of the solutions of the inverted equation.
    """
    return _solve(a, b, within, True)


def _solve(a, b, within, left):
    """The solutions of x * a == b (``left``) or a * x == b, sorted by their pieces.

    The monoid is picked once, as data: its cells, its pairing rule and the
    wrapper of a candidate that passes.  Cells are read as for a right
    problem, with free points in ran(a)'s gaps; a left problem reads them
    off the forced map turned around, with dom(a)'s gaps free, and swaps
    their two sides.

    Every candidate goes through the full product with a in the kernel, and
    only one that passes is wrapped.  Both factors go in domain order, so
    the kernel's output is the product's maximal pieces, and a candidate
    passes when that output equals b's pieces.
    """
    _check_element(a, "a")
    _check_element(b, "b")
    either_almost = isinstance(a, _AM) or isinstance(b, _AM)
    if within is None:
        within = "almost" if either_almost else "monotone"
    if within == "almost":
        cells_of, pair, wrap = _almost_cells, _unused, _AM._trusted
    elif within != "monotone":
        raise ValueError(f"unknown monoid {within!r}")
    elif either_almost:
        raise InvalidElementError("the monotone monoid takes monotone elements")
    else:
        cells_of, pair, wrap = _monotone_cells, _increasing, MonotoneElement._trusted
    compose = _kernel.compose_segments
    if left:
        if not _runs_within(a._ran_runs(), b._ran_runs()):
            return ()
        forced = b * a.inverse()
        cells = [(values, points) for points, values in cells_of(a._dom_runs(), _inverted(forced.pieces))]
        product, equation = (lambda x: compose(x, a.pieces)), "x * a == b"
    else:
        if not _runs_within(a._dom_runs(), b._dom_runs()):
            return ()
        forced = a.inverse() * b
        cells = cells_of(a._ran_runs(), forced.pieces)
        product, equation = partial(compose, a.pieces), "a * x == b"
    candidates = _extensions(forced.pieces, cells, pair)
    root = next(candidates)
    want = product(root)
    # explicit raises, so that the checks also run under python -O
    if want != list(b.pieces):
        raise AssertionError(f"a solver candidate fails {equation}: {root!r}")
    out = [root]
    for pieces in candidates:
        if product(pieces) != want:
            raise AssertionError(f"a solver candidate fails {equation}: {pieces!r}")
        out.append(pieces)
    return tuple(map(wrap, sorted(out)))


def _monotone_cells(free, pieces):
    """One cell per zone between neighbouring forced pieces (``core._zones``), in domain order.

    Its points are the runs of ``free`` in the zone, and its values lie
    strictly between the images of the two neighbours; pairing them in
    increasing order keeps the graft canonical.  ``_extensions`` skips a
    cell with no points.
    """
    return [(runs, [(vlo + 1, vhi - 1)]) for vlo, vhi, runs in _zones(pieces, free)]


def _almost_cells(free, pieces):
    """One cell, the whole gap set: the free runs go to the forced range's gaps in any order."""
    return [(free, _image_gaps(pieces))]


def _increasing(used, n):
    """The monotone pairing rule: a cell's values increase with its points."""
    return range(used[-1] + 1 if used else 0, n)


def _unused(used, n):
    """The almost-monotone pairing rule: a point takes any value of its cell not yet used."""
    return [v for v in range(n) if v not in used]


def _extensions(base, cells, pair):
    """The maximal pieces, in domain order, of each extension of the forced pieces ``base``.

    ``cells`` are (point runs, value runs) pairs in domain order; a cell with
    an empty side lists no points.  The extensions form a tree, walked with
    an explicit stack from its root, ``base`` itself: a node extends its
    parent by one point piece (x, x, v - x), at a free point x past the
    parent's last one and with a value v of x's cell that ``pair`` allows
    after the values the branch has used in that cell.  A node keeps its
    pieces up to x.  A child takes them, the forced pieces up to its point
    (from a slot bisected once per point) and its point piece, each merged
    only where it joins the piece before; its candidate is that list joined
    to the rest of the forced pieces.
    """
    base = list(base)
    yield base
    points, values = [], []
    for point_runs, value_runs in cells:
        if any(lo <= hi for lo, hi in point_runs) and any(lo <= hi for lo, hi in value_runs):
            points += [(x, len(values)) for x in _run_ints(point_runs)]
            values.append(list(_run_ints(value_runs)))
    slots = [bisect_left(base, x, key=_lo) for x, _ in points]
    n = len(points)
    # a node: its pieces up to its last point, the forced pieces among them, the
    # next point it may extend by, its last point's cell and the values its branch used there
    stack = [([], 0, 0, None, ())]
    while stack:
        head, k, i, last, used = stack.pop()
        for j in range(i, n):
            x, c = points[j]
            s = slots[j]
            upto, rest = _joined(head, base[k:s]), base[s:]
            plo, phi, poff = upto[-1]
            in_cell = used if c == last else ()
            for vi in pair(in_cell, len(values[c])):
                o = values[c][vi] - x
                if o == poff and phi + 1 == x:
                    grown = [*upto[:-1], (plo, x, o)]
                else:
                    grown = [*upto, (x, x, o)]
                yield _joined(grown, rest)
                if j + 1 < n:
                    stack.append((grown, s, j + 1, c, (*in_cell, vi)))


def _joined(left, right) -> list:
    """left + right for two lists of maximal pieces in domain order, merged where they meet."""
    if left and right:
        plo, phi, off = left[-1]
        lo, hi, o = right[0]
        if o == off and phi + 1 == lo:
            return [*left[:-1], (plo, hi, off), *right[1:]]
    return left + right
