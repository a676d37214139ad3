"""The segment composition kernel.

Segments are (lo, hi, offset) triples with float infinities allowed at the
outer ends.  Both element classes pass their pieces as they store them, in
domain order, so an almost-monotone left factor comes with its images in any
order.  :func:`compose_segments` is one loop: it merges each piece into the
previous output piece as it emits it.  :func:`merge_pieces` is the merge
loop for the other code that builds pieces.  All arithmetic is on Python
ints, so it is exact at any width.
"""

from bisect import bisect_left
from math import inf
from operator import itemgetter

_hi = itemgetter(1)


def kernel_name() -> str:
    """The kernel in use; only the pure-Python one exists."""
    return "pure"


def compose_segments(a, b):
    """Segments of the composite map 'a then b', merged where consecutive.

    ``a`` is disjoint pieces in any order, and ``b`` is disjoint pieces
    sorted by domain.  One pointer walks forward over b while a's images
    increase, in O(n + m); from the first image that turns back on, each
    piece bisects for its first b piece, in O(n log m).  The output follows
    a's order, and a piece that touches the previous output piece and shares
    its offset is merged into it as it is emitted, so a domain-ordered ``a``
    of maximal pieces gives the composite's maximal pieces.
    """
    out = []
    j = 0
    nb = len(b)
    plo = phi = poff = None  # the last output piece
    end = -inf  # the previous piece's image end while a's images increase, +inf after
    for lo, hi, off in a:
        ilo = lo + off
        ihi = hi + off
        if ilo < end:
            end = inf
            j = bisect_left(b, ilo, key=_hi)
        else:
            end = ihi
            while j < nb and b[j][1] < ilo:
                j += 1
        k = j
        while k < nb and b[k][0] <= ihi:
            blo, bhi, boff = b[k]
            s_lo = (ilo if ilo > blo else blo) - off
            s_hi = (ihi if ihi < bhi else bhi) - off
            if s_lo <= s_hi:
                o = off + boff
                if o == poff and phi + 1 == s_lo:
                    out[-1] = (plo, s_hi, o)
                else:
                    out.append((s_lo, s_hi, o))
                    plo = s_lo
                    poff = o
                phi = s_hi
            k += 1
    return out


def merge_pieces(pieces):
    """The pieces with each run of neighbours that touch and share an offset merged into one.

    Every graft (``core._graft``) and every monotone W draw ends here.  The
    last output piece is kept in locals, and a piece that merges with
    nothing is appended as given.
    """
    merged = []
    plo = phi = poff = None  # the last output piece
    for piece in pieces:
        lo, hi, off = piece
        if off == poff and phi + 1 == lo:
            merged[-1] = (plo, hi, off)
        else:
            merged.append(piece)
            plo, poff = lo, off
        phi = hi
    return merged
