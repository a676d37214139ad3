"""The segment composition kernel.

Segments are (lo, hi, offset) triples with float infinities allowed at the
outer ends.  Monotone ``*`` passes two canonical segment lists; almost-monotone
composition passes the left factor's translation pieces sorted by image.
:func:`merge_pieces` is the one merge loop for all code that builds pieces.
All arithmetic is on Python ints, so it is exact at any width.
"""


def kernel_name() -> str:
    """The kernel in use; only the pure-Python one exists."""
    return "pure"


def compose_segments(a, b):
    """Segments of the composite map 'a then b', merged where consecutive.

    ``a`` must be sorted by image and ``b`` by domain, each disjoint.  The
    output follows a's order; pieces adjacent in it with one offset and
    touching domains are merged, which for canonical monotone input gives
    canonical form.
    """
    out = []
    j = 0
    nb = len(b)
    for lo, hi, off in a:
        ilo = lo + off
        ihi = hi + off
        while j < nb and b[j][1] < ilo:
            j += 1
        k = j
        while k < nb and b[k][0] <= ihi:
            blo, bhi, boff = b[k]
            s_lo = ilo if ilo > blo else blo
            s_hi = ihi if ihi < bhi else bhi
            if s_lo <= s_hi:
                out.append((s_lo - off, s_hi - off, off + boff))
            k += 1
    return merge_pieces(out)


def merge_pieces(pieces):
    """The pieces with each run of neighbours that touch and share an offset merged into one.

    All code that builds translation pieces ends here: the composite above, an
    almost-monotone window and a map extended by finitely many points.
    """
    merged = []
    for lo, hi, off in pieces:
        if merged:
            plo, phi, poff = merged[-1]
            if poff == off and phi + 1 == lo:
                merged[-1] = (plo, hi, poff)
                continue
        merged.append((lo, hi, off))
    return merged
