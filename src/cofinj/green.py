"""Green's relations and the structure they expose: D-class witnesses between
arbitrary idempotents, the two-sided factorization through any element, and
exact finite solution sets for one-sided equations.

Both element kinds (monotone and almost-monotone) are accepted wherever gaps
determine the answer: the R/L/H relations compare domain and range gap sets,
as sorted maximal runs, so their cost does not grow with the gap widths.
The equation solvers enumerate the full (finite) solution set of a*x == b or
x*a == b, either inside the monotone monoid or inside the almost-monotone
one.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from .core import (
    IdempotentGaps,
    MonotoneElement,
    Segment,
    collapse_element,
    element_from_gaps,
    _graft,
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
    kappa = collapse_element(gamma.dom_gaps()) * collapse_element(phi.dom_gaps()).inverse()
    xi = (kappa * phi).inverse() * gamma
    return kappa, xi


def h_class_members(elem: MonotoneElement, alignments) -> list:
    """The members of the monotone H-class of elem at the given left-tail offsets."""
    d, r = elem.dom_gaps(), elem.ran_gaps()
    return [element_from_gaps(d, r, k) for k in alignments]


# -- finite equation solving ------------------------------------------------------


def _text_key(elem):
    return elem.to_text()


def _free_cells(forced: MonotoneElement):
    """Group the integers missing from dom(forced) by their bracketing domain points.

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


def solve_right(a, b, within: str | None = None):
    """All x with a * x == b, as a tuple sorted by canonical text.

    ``within`` picks the monoid to solve in ("monotone" or "almost"); by
    default it is "almost" as soon as either input is almost-monotone.  Every
    solution extends the forced partial map a.inverse()*b by finitely many
    points taken from the complement of ran(a), which keeps the set finite.
    """
    if within is None:
        within = (
            "almost"
            if isinstance(a, _almost.AlmostMonotoneElement)
            or isinstance(b, _almost.AlmostMonotoneElement)
            else "monotone"
        )
    if within not in ("monotone", "almost"):
        raise ValueError(f"unknown monoid {within!r}")
    a_m = _almost.as_almost(a) if within == "almost" else a
    b_m = _almost.as_almost(b) if within == "almost" else b
    if within == "almost":
        return _solve_right_almost(a_m, b_m)
    return _solve_right_monotone(a_m, b_m)


def _solve_right_monotone(a: MonotoneElement, b: MonotoneElement):
    if not _runs_within(a._dom_runs(), b._dom_runs()):
        return ()
    forced = a.inverse() * b
    free = sorted(a.ran_gaps())
    cells = _free_cells(forced)
    cell_options = []
    for (pred, succ), pts in cells:
        usable = [s for s in pts if s in free]
        lo, hi = forced(pred), forced(succ)
        values = range(lo + 1, hi)
        opts = []
        for n in range(min(len(usable), len(values)) + 1):
            for chosen in combinations(usable, n):
                for vals in combinations(values, n):
                    opts.append(tuple(zip(chosen, vals)))
        cell_options.append(opts)
    out = []
    for combo in product(*cell_options):
        # increasing values between the forced neighbours keep the graft canonical
        x = MonotoneElement._trusted(
            tuple(map(Segment._make, _graft(forced.segments, (p for opt in combo for p in opt))))
        )
        assert a * x == b
        out.append(x)
    return tuple(sorted(out, key=_text_key))


def _solve_right_almost(a, b):
    if not _runs_within(a._dom_runs(), b._dom_runs()):
        return ()
    forced = _almost.compose_almost(_almost.inverse_almost(a), b)
    free = sorted(a.ran_gaps())
    values = sorted(forced.ran_gaps())
    out = []
    for n in range(min(len(free), len(values)) + 1):
        for chosen in combinations(free, n):
            for vals in permutations(values, n):
                x = _extend_almost(forced, dict(zip(chosen, vals)))
                assert _almost.compose_almost(a, x) == b
                out.append(x)
    return tuple(sorted(out, key=_text_key))


def _extend_almost(base, extra: dict):
    """base with finitely many extra point assignments grafted into its middle.

    The extra points lie outside dom(base) and their values outside its range.
    """
    if not extra:
        return base
    return _almost.AlmostMonotoneElement._trusted(_graft(base._pieces(), extra.items()))


def solve_left(a, b, within: str | None = None):
    """All x with x * a == b; dual to solve_right through inversion, which keeps each input's class."""
    sols = solve_right(a.inverse(), b.inverse(), within=within)
    return tuple(sorted((x.inverse() for x in sols), key=_text_key))
