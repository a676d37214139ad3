"""Green's relations and the structure they expose: D-class witnesses between
arbitrary idempotents, the two-sided factorization through any element, and
exact finite solution sets for one-sided equations.

Both element kinds (monotone and almost-monotone) are accepted wherever gaps
determine the answer.  Gap sets are read as sorted maximal runs, so the cost
of the R/L/H relations, the factorization and the H-class members does not
grow with the gap widths.  One solver enumerates the full (finite) solution
set of a*x == b or x*a == b, inside the monotone monoid or inside the
almost-monotone one.  It reads its cells off gap runs, and it lists a cell's
points only when the cell has room for an extra point.  Each candidate costs
only its own pieces, its check against the full product and its text.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations, groupby, permutations, product
from operator import itemgetter, methodcaller

from . import _kernel
from .core import (
    IdempotentGaps,
    InvalidElementError,
    MonotoneElement,
    _from_runs,
    _merged,
    _overlaps,
    _runs_within,
)
from . import almost as _almost

_AM = _almost.AlmostMonotoneElement


def r_equiv(a, b) -> bool:
    """Same principal right ideal, i.e. equal domains."""
    return a._dom_runs() == b._dom_runs()


def l_equiv(a, b) -> bool:
    """Same principal left ideal, i.e. equal ranges."""
    return a._ran_runs() == b._ran_runs()


def h_equiv(a, b) -> bool:
    return r_equiv(a, b) and l_equiv(a, b)


def connect_idempotents(eps: IdempotentGaps, phi: IdempotentGaps, i: int) -> MonotoneElement:
    """An element a with a * a.inverse() == eps and a.inverse() * a == phi.

    Built as collapse(eps gaps), then shift(i), then the inverse collapse of
    phi's gaps; distinct i give distinct elements, so every idempotent pair
    is connected by infinitely many of these.
    """
    return _from_runs(eps.runs, phi.runs, i)


def factorize_simple(gamma: MonotoneElement, phi: MonotoneElement):
    """A pair (kappa, xi) with kappa * phi * xi == gamma.

    Existence for arbitrary gamma, phi is exactly the absence of proper
    two-sided ideals.  kappa re-indexes dom(gamma) onto dom(phi) through the
    canonical collapses; xi is then forced.
    """
    kappa = _from_runs(gamma._dom_runs(), phi._dom_runs(), 0)
    xi = (kappa * phi).inverse() * gamma
    return kappa, xi


def h_class_members(elem: MonotoneElement, alignments) -> list:
    """The members of the monotone H-class of elem at the given left-tail offsets."""
    d, r = elem._dom_runs(), elem._ran_runs()
    return [_from_runs(d, r, k) for k in alignments]


# -- finite equation solving ------------------------------------------------------


_text_key = methodcaller("to_text")


def solve_right(a, b, within: str | None = None):
    """All x with a * x == b, as a tuple sorted by canonical text.

    ``within`` picks the monoid to solve in ("monotone" or "almost"); by
    default it is "almost" as soon as either input is almost-monotone.  Every
    solution extends the forced partial map a.inverse()*b by finitely many
    points taken from the complement of ran(a), which keeps the set finite.
    """
    return tuple(sorted(_right_solutions(a, b, within), key=_text_key))


def solve_left(a, b, within: str | None = None):
    """All x with x * a == b; dual to solve_right through inversion, which keeps each input's class."""
    sols = _right_solutions(a.inverse(), b.inverse(), within)
    return tuple(sorted((x.inverse() for x in sols), key=_text_key))


def _right_solutions(a, b, within):
    """The solutions of a * x == b in the monoid ``within`` picks, unsorted.

    Each solution is forced = a^-1 * b grafted with one extension per cell:
    n of the cell's free points sent to n of its values by the monoid's
    pairing rule.  The monoid is picked once, as data: its cells, its pairing
    rule, the product that checks a candidate and the wrapper of one that passes.
    A candidate's pieces are one sort-and-merge of forced's pieces with its
    options' point pieces; the full product a*x is compared with b on that
    raw list, and only a candidate that passes is wrapped.
    """
    either_almost = isinstance(a, _AM) or isinstance(b, _AM)
    if within is None:
        within = "almost" if either_almost else "monotone"
    if within == "almost":
        # a's pieces are sorted by image once; each check is the full product a*x
        check = partial(_almost._composite, _almost._by_image(a))
        cells, pair, wrap = _almost_cells, permutations, _AM._trusted
    elif within != "monotone":
        raise ValueError(f"unknown monoid {within!r}")
    elif either_almost:
        raise InvalidElementError("the monotone monoid takes monotone elements")
    else:
        check = partial(_kernel.compose_segments, a.pieces)
        cells, pair, wrap = _monotone_cells, combinations, MonotoneElement._trusted
    if not _runs_within(a._dom_runs(), b._dom_runs()):
        return ()
    forced = a.inverse() * b
    options = [_cell_options(points, values, pair) for points, values in cells(a, forced)]
    base, want = forced.pieces, list(b.pieces)
    out = []
    for combo in product(*options):
        pieces = _merged([*base, *chain.from_iterable(combo)])
        # an explicit raise, so that the check also runs under python -O
        if check(pieces) != want:
            raise AssertionError(f"a solver candidate fails a * x == b: {pieces!r}")
        out.append(wrap(pieces))
    return out


def _monotone_cells(a, forced):
    """One cell per maximal run of dom(forced) gaps that meets ran(a)'s gaps.

    Its free points are a's range gaps in the run, and its values lie strictly
    between the forced values around the run; pairing them in increasing
    order keeps the graft canonical.
    """
    for (lo, hi), overlaps in groupby(_overlaps(forced._dom_runs(), a._ran_runs()), key=itemgetter(2)):
        yield [o[:2] for o in overlaps], [(forced(lo - 1) + 1, forced(hi + 1) - 1)]


def _almost_cells(a, forced):
    """One cell, the whole gap set: a's range gaps go to forced's range gaps in any order."""
    return [(a._ran_runs(), forced._ran_runs())]


def _cell_options(point_runs, value_runs, pair) -> list:
    """Each extension of one cell, as its point pieces (x, x, value - x) sorted by x; () alone if a side is empty.

    Both sides are checked as runs, so an empty side lists no points.
    """
    if not any(lo <= hi for lo, hi in point_runs) or not any(lo <= hi for lo, hi in value_runs):
        return [()]
    points, values = ([x for lo, hi in runs for x in range(lo, hi + 1)] for runs in (point_runs, value_runs))
    return [
        tuple([(x, x, v - x) for x, v in zip(chosen, vals)])
        for n in range(min(len(points), len(values)) + 1)
        for chosen in combinations(points, n)
        for vals in pair(values, n)
    ]
