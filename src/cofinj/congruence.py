"""The minimal group congruence and its quotient onto Z x Z.

Two elements are identified exactly when they agree far enough out on both
tails, and since tails are translations that happens exactly when their
tail offsets match.  Reading off the pair of tail offsets is therefore a
surjective homomorphism onto Z(+) x Z(+) realizing the quotient; on the
group of units of the monotone monoid it restricts to the isomorphism with
Z(+) (every unit is a shift).
"""

from __future__ import annotations

from typing import NamedTuple

from .core import InvalidElementError, MonotoneElement, _from_runs, _idempotent, _PieceMap, _window, shift


class Signature(NamedTuple):
    """Image of an element in the quotient group: the pair of tail offsets."""

    left_delta: int
    right_delta: int

    def __add__(self, other):
        return Signature(self.left_delta + other.left_delta, self.right_delta + other.right_delta)

    def __neg__(self):
        return Signature(-self.left_delta, -self.right_delta)


def mgc_signature(elem) -> Signature:
    """The quotient homomorphism: both tail offsets, added componentwise under composition."""
    if not isinstance(elem, _PieceMap):
        raise TypeError(f"not an element: {elem!r}")
    return Signature(elem.left_offset, elem.right_offset)


def mgc_equiv(a, b) -> bool:
    """Minimal-group-congruence equivalence: the two maps agree on both far tails.

    Tails are translations, so agreement on a tail is exactly equality of its
    offset, and the test reduces to equality of signatures.
    """
    return mgc_signature(a) == mgc_signature(b)


def unit_to_shift(elem: MonotoneElement) -> int:
    """The isomorphism from the monotone unit group onto Z(+): a unit is a shift."""
    if not isinstance(elem, MonotoneElement) or len(elem.pieces) != 1:
        raise InvalidElementError("element is not a unit of the monotone monoid")
    return elem.pieces[0][2]


def signature_preimage(sig) -> MonotoneElement:
    """A canonical element mapping to the given signature.

    Left tail runs up to 0 with offset a; the right tail starts at
    max(1, a - b + 1) with offset b, which leaves b - a range gaps when
    b > a and a - b domain gaps when a > b.
    """
    a, b = sig
    if a == b:
        return shift(a)
    if b > a:
        return _from_runs((), [(a + 1, b)], a)
    return _from_runs([(1, a - b)], (), a)


def witness_idempotent(a, b) -> "MonotoneElement":
    """For tail-equivalent elements, an idempotent e with a*e == b*e.

    Collapses everything either map does on the shared middle window; its
    existence is the congruence criterion for the minimal group congruence.
    The shared window spans both maps' windows (``core._window``); the gaps
    are the images of each map's pieces clipped to the open window, as runs;
    sorted together, they are the gap runs of the idempotent.  Inner pieces
    lie inside the window, so only the tails are clipped.
    """
    if not mgc_equiv(a, b):
        raise InvalidElementError("elements are not congruent")
    ps = (a.pieces, b.pieces)
    lo = min(_window(p)[0] for p in ps) + 1
    hi = max(_window(p)[1] for p in ps) - 1
    runs = [(s + o, t + o) for p in ps for s, t, o in p[1:-1]]
    for s, t, o in (p[i] for p in ps for i in (0, -1)):
        s, t = max(s, lo), min(t, hi)
        if s <= t:
            runs.append((s + o, t + o))
    runs.sort()
    return _idempotent(runs)
