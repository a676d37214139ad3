"""The segment composition kernel.

Segments are (lo, hi, offset) triples with float infinities allowed at the
outer ends.  Both element classes pass their pieces as they store them, in
domain order, so an almost-monotone left factor comes with its images in any
order; the right factor's last piece runs to +inf and ends every walk over
it.  :func:`merge_pieces` is the merge loop for the other code that builds
pieces.  All arithmetic is on Python ints, so it is exact at any width.
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

    ``a`` is disjoint pieces in any order; ``b`` is an element's maximal
    pieces, sorted by domain, the last one running to +inf.  One pointer
    walks forward over b while a's images increase, in O(n + m); from the
    first image that turns back on, each piece bisects for its first b piece,
    in O(n log m).  Each b piece visited costs one test, and the walk stops
    where the image ends.  An image's first output piece merges into the last
    one when it touches it with the same offset, so the output follows a's
    order and a domain-ordered ``a`` of maximal pieces gives maximal pieces.
    """
    out = []
    j = 0
    phi = poff = None  # the end and offset of the last output piece
    end = -inf  # the previous piece's image end while a's images increase, +inf after
    for lo, hi, off in a:
        ilo = lo + off
        ihi = hi + off
        if ilo < end:
            end = inf
            j = bisect_left(b, ilo, key=_hi)
        else:
            end = ihi
            while b[j][1] < ilo:
                j += 1
        blo, bhi, boff = b[j]
        if blo > ihi:
            continue  # the image lies in a gap of b
        s_lo = lo if ilo >= blo else blo - off
        o = off + boff
        if o == poff and phi + 1 == s_lo:
            s_lo = out.pop()[0]  # the piece goes on from the last output piece
        while ihi > bhi:  # the image runs past b[j]: emit the cut piece, go on to the next
            phi = bhi - off
            out.append((s_lo, phi, o))
            j += 1
            blo, bhi, boff = b[j]
            if blo > ihi:
                break
            s_lo = blo - off
            o = off + boff
        else:  # the image ends in b[j]
            phi = hi
            out.append((s_lo, hi, o))
        poff = o
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
