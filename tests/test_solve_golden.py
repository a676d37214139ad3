"""Replay recorded one-sided solves and require the same solution sets.

``tests/data/solve_golden.json`` holds seeded solves of the kinds the
search_wide workload runs: the families ``E{0..n-1} * ? = E{0..n-1}`` for
n <= 6 on both sides, random monotone pairs with a planted solution (solved in
both monoids), and almost-monotone pairs over the grid of range-gap counts.
Each case stores its inputs as canonical text, the number of solutions and
the SHA-256 of their texts, sorted and joined by newlines.  The digest reads
the texts in text order, whatever order the solver returns them in.

Re-record it only for a deliberate change of the solution sets:

    PYTHONPATH=src python tests/test_solve_golden.py
"""

import hashlib
import json
import os
import random
import sys

import pytest

from cofinj import almost, green
from cofinj.core import IdempotentGaps, parse_element, random_element

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "solve_golden.json")

# (f, v): range gaps of a and of b in an almost-monotone solve
ALMOST_GRID = [(0, 0), (0, 2), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (4, 4), (4, 5)]


def _parse(text):
    return almost.parse_almost(text) if text.startswith("am[") else parse_element(text)


def _solve(case):
    fn = green.solve_right if case["side"] == "right" else green.solve_left
    return fn(_parse(case["a"]), _parse(case["b"]), within=case["within"])


def _digest(sols):
    return hashlib.sha256("\n".join(sorted(x.to_text() for x in sols)).encode()).hexdigest()


def _load():
    with open(GOLDEN) as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("kind", ["family", "random", "almost"])
def test_solves_match_recording(kind):
    cases = [c for c in _load() if c["kind"] == kind]
    assert cases
    for case in cases:
        sols = _solve(case)
        assert (len(sols), _digest(sols)) == (case["n"], case["sha256"]), case


def _almost_instance(rng, f, v):
    """(a, b) with f range gaps in a = E{S}, S inside the domain gaps of b, and v range gaps in b."""
    while True:
        b = almost.random_almost(rng, max_offset=2, window=3, max_middle=6)
        dg, rg = b.dom_gaps(), b.ran_gaps()
        if len(dg) >= f and len(rg) == v:
            return IdempotentGaps(rng.sample(sorted(dg), f)).to_element(), b


def _instances():
    rng = random.Random(20261019)
    for n in range(1, 7):
        e = IdempotentGaps(range(n)).to_element()
        for side in ("right", "left"):
            yield "family", e, e, "monotone", side
    for i in range(48):
        a, y = random_element(rng, 3, 3), random_element(rng, 3, 3)
        side = "right" if i % 2 == 0 else "left"
        b = a * y if side == "right" else y * a
        yield "random", a, b, "monotone" if i % 3 else "almost", side
    for f, v in ALMOST_GRID:
        for j in range(3):
            a, b = _almost_instance(rng, f, v)
            if j == 2:
                yield "almost", a, almost.inverse_almost(b), "almost", "left"
            else:
                yield "almost", a, b, "almost", "right"


def record():
    cases = []
    for kind, a, b, within, side in _instances():
        case = {"kind": kind, "a": a.to_text(), "b": b.to_text(), "within": within, "side": side}
        sols = _solve(case)
        cases.append({**case, "n": len(sols), "sha256": _digest(sols)})
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump({"cases": cases}, fh, indent=0)
        fh.write("\n")
    print(f"{len(cases)} cases, {sum(c['n'] for c in cases)} solutions")


if __name__ == "__main__":
    sys.exit(record())
