"""Green's relations and the structure they expose: D-class witnesses between
arbitrary idempotents, the two-sided factorization through any element, and
exact finite solution sets for one-sided equations.

Both element kinds (monotone and almost-monotone) are accepted wherever gaps
determine the answer.  Gap sets are read as sorted maximal runs, so the cost
of the R/L/H relations, the factorization, the H-class members and the
monotone solver's cells does not grow with the gap widths.
The equation solvers enumerate the full (finite) solution set of a*x == b or
x*a == b, either inside the monotone monoid or inside the almost-monotone
one.
"""

from __future__ import annotations

from itertools import combinations, groupby, permutations, product
from operator import itemgetter

from .core import (
    IdempotentGaps,
    MonotoneElement,
    element_from_gaps,
    _collapse_runs,
    _from_pieces,
    _from_runs,
    _graft,
    _overlaps,
    _runs_within,
)
from . import almost as _almost


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
    return element_from_gaps(eps.gaps, phi.gaps, i)


def factorize_simple(gamma: MonotoneElement, phi: MonotoneElement):
    """A pair (kappa, xi) with kappa * phi * xi == gamma.

    Existence for arbitrary gamma, phi is exactly the absence of proper
    two-sided ideals.  kappa re-indexes dom(gamma) onto dom(phi) through the
    canonical collapses; xi is then forced.
    """
    kappa = _collapse_runs(gamma._dom_runs()) * _collapse_runs(phi._dom_runs()).inverse()
    xi = (kappa * phi).inverse() * gamma
    return kappa, xi


def h_class_members(elem: MonotoneElement, alignments) -> list:
    """The members of the monotone H-class of elem at the given left-tail offsets."""
    d, r = elem._dom_runs(), elem._ran_runs()
    return [_from_runs(d, r, k) for k in alignments]


# -- finite equation solving ------------------------------------------------------


def _text_key(elem):
    return elem.to_text()


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
    """The solutions of a * x == b in the monoid ``within`` picks, unsorted."""
    if within is None:
        within = (
            "almost"
            if isinstance(a, _almost.AlmostMonotoneElement)
            or isinstance(b, _almost.AlmostMonotoneElement)
            else "monotone"
        )
    if within not in ("monotone", "almost"):
        raise ValueError(f"unknown monoid {within!r}")
    if within == "almost":
        return _solve_right_almost(_almost.as_almost(a), _almost.as_almost(b))
    return _solve_right_monotone(a, b)


def _solve_right_monotone(a: MonotoneElement, b: MonotoneElement):
    if not _runs_within(a._dom_runs(), b._dom_runs()):
        return ()
    forced = a.inverse() * b
    # a cell is a maximal run of dom(forced) gaps; an extension sends the cell's points
    # outside ran(a) strictly between the forced values around it, or leaves the cell alone
    cell_options = []
    for (lo, hi), overlaps in groupby(_overlaps(forced._dom_runs(), a._ran_runs()), key=itemgetter(2)):
        values = range(forced(lo - 1) + 1, forced(hi + 1))
        if not values:
            continue
        usable = [s for ulo, uhi, _, _ in overlaps for s in range(ulo, uhi + 1)]
        opts = []
        for n in range(min(len(usable), len(values)) + 1):
            for chosen in combinations(usable, n):
                for vals in combinations(values, n):
                    opts.append(tuple(zip(chosen, vals)))
        cell_options.append(opts)
    out = []
    for combo in product(*cell_options):
        # increasing values between the forced neighbours keep the graft canonical
        x = _from_pieces(_graft(forced.segments, (p for opt in combo for p in opt)))
        assert a * x == b
        out.append(x)
    return out


def _solve_right_almost(a, b):
    if not _runs_within(a._dom_runs(), b._dom_runs()):
        return ()
    forced = _almost.compose_almost(_almost.inverse_almost(a), b)
    free = sorted(a.ran_gaps())
    values = sorted(forced.ran_gaps())
    a_pieces = _almost._by_image(a)  # sorted once; each check below is the full product a*x
    out = []
    for n in range(min(len(free), len(values)) + 1):
        for chosen in combinations(free, n):
            for vals in permutations(values, n):
                x = _extend_almost(forced, tuple(zip(chosen, vals)))
                assert _almost._compose_by_image(a_pieces, x) == b
                out.append(x)
    return out


def _extend_almost(base, extra: tuple):
    """base with finitely many extra (point, value) pairs grafted into its middle.

    The extra points lie outside dom(base) and their values outside its range.
    """
    if not extra:
        return base
    return _almost.AlmostMonotoneElement._trusted(_graft(base._pieces(), extra))

