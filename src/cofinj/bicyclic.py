"""Bicyclic subsemigroups generated by the one-point stutter maps.

For each integer n and each orientation there is a pair of partial maps:
the expanding generator ``p`` is injective and total but skips one value,
the contracting generator ``q`` drops one domain point and closes the gap.
Composing in diagram order gives p*q == id while q*p != id, so each pair
generates a copy of the monoid presented by that single relation; words in
p and q all reduce to the normal form q^a p^b.

Orientation '+' stutters above the index n, orientation '-' below it.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import NEG_INF, POS_INF, MonotoneElement, _check_int, identity

LETTERS = ("p", "q")
ORIENTATIONS = ("+", "-")


class BicyclicWord(NamedTuple):
    """A word over the two generators of one bicyclic copy."""

    index: int
    orientation: str
    letters: str

    def element(self) -> MonotoneElement:
        return eval_word(self)

    def to_text(self) -> str:
        sign = "+" if self.orientation == "+" else "-"
        if not self.letters:
            return "id"
        return " * ".join(f"{'a' if c == 'p' else 'b'}{sign}({self.index})" for c in self.letters)


def gen(n: int, orientation: str, letter: str) -> MonotoneElement:
    """The generator as an element: letter 'p' expands, 'q' contracts.

    '+' orientation: p fixes x <= n and shifts x > n up by one; q fixes
    x <= n, drops n+1, and shifts x > n+1 down by one.  '-' mirrors this
    below n.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be '+' or '-', got {orientation!r}")
    if letter not in LETTERS:
        raise ValueError(f"letter must be 'p' or 'q', got {letter!r}")
    _check_int(n, "index must be an integer")
    if orientation == "+":
        if letter == "p":
            segs = ((NEG_INF, n, 0), (n + 1, POS_INF, 1))
        else:
            segs = ((NEG_INF, n, 0), (n + 2, POS_INF, -1))
    elif letter == "p":
        segs = ((NEG_INF, n - 1, -1), (n, POS_INF, 0))
    else:
        segs = ((NEG_INF, n - 2, 1), (n, POS_INF, 0))
    return MonotoneElement._trusted(segs)


def eval_word(word: BicyclicWord) -> MonotoneElement:
    """Left-to-right composition of the word's generators; the empty word is id."""
    p = gen(word.index, word.orientation, "p")
    q = gen(word.index, word.orientation, "q")
    out = identity()
    for c in word.letters:
        if c not in LETTERS:
            raise ValueError(f"letters must be 'p' or 'q', got {c!r}")
        out = out * (p if c == "p" else q)
    return out


def normal_form(word) -> tuple[int, int]:
    """The unique (a, b) with the word equal to q^a p^b under p*q == 1.

    Counter scan: p raises the trailing p-count; q cancels a trailing p when
    one is present and otherwise raises the leading q-count.
    """
    letters = word.letters if isinstance(word, BicyclicWord) else word
    a = b = 0
    for c in letters:
        if c == "p":
            b += 1
        elif c == "q":
            if b > 0:
                b -= 1
            else:
                a += 1
        else:
            raise ValueError(f"letters must be 'p' or 'q', got {c!r}")
    return (a, b)
