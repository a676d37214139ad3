"""The segment composition kernel.

Segments are (lo, hi, offset) triples with float infinities allowed at the
outer ends.  Monotone ``*`` passes two canonical segment lists; almost-monotone
composition passes the left factor's translation pieces sorted by image.
:func:`compose_segments` is one loop: it merges each piece into the previous
output piece as it emits it.  :func:`merge_pieces` is the merge loop for the
other code that builds pieces.  All arithmetic is on Python ints, so it is
exact at any width.
"""


def kernel_name() -> str:
    """The kernel in use; only the pure-Python one exists."""
    return "pure"


def compose_segments(a, b):
    """Segments of the composite map 'a then b', merged where consecutive.

    ``a`` must be sorted by image and ``b`` by domain, each disjoint.  The
    output follows a's order; a piece that touches the previous output piece
    and shares its offset is merged into it as it is emitted, which for
    canonical monotone input gives canonical form.
    """
    out = []
    j = 0
    nb = len(b)
    plo = phi = poff = None  # the last output piece
    for lo, hi, off in a:
        ilo = lo + off
        ihi = hi + off
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

    Every graft and almost-monotone composite ends here, by way of
    ``core._merged``.  The last output piece is kept in locals, and a
    piece that merges with nothing is appended as given.
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
