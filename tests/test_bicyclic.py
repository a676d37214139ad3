from itertools import product

import pytest

from cofinj.core import IdempotentGaps, InvalidElementError, identity, parse_element
from cofinj.bicyclic import BicyclicWord, eval_word, gen, normal_form
from cofinj.exprlang import Evaluator


def test_generator_definitions():
    assert gen(0, "+", "p") == parse_element("seg[(-inf..0,+0),(1..+inf,+1)]")
    assert gen(0, "+", "q") == parse_element("seg[(-inf..0,+0),(2..+inf,-1)]")
    assert gen(3, "-", "p") == parse_element("seg[(-inf..2,-1),(3..+inf,+0)]")
    assert gen(3, "-", "q") == parse_element("seg[(-inf..1,+1),(3..+inf,+0)]")


def test_generator_rejects_bad_input():
    with pytest.raises(ValueError):
        gen(0, "x", "p")
    with pytest.raises(ValueError):
        gen(0, "+", "r")
    for n in (1.5, True, "0"):
        with pytest.raises(InvalidElementError):
            gen(n, "+", "p")


def test_defining_relation_all_indices_both_orientations():
    for n in range(-5, 6):
        for orient in "+-":
            assert eval_word(BicyclicWord(n, orient, "pq")) == identity()
            qp = eval_word(BicyclicWord(n, orient, "qp"))
            missing = n + 1 if orient == "+" else n - 1
            assert qp == IdempotentGaps({missing}).to_element()
            assert qp != identity()


def test_word_examples():
    assert eval_word(BicyclicWord(0, "+", "")) == identity()
    assert eval_word(BicyclicWord(0, "+", "qp")) == IdempotentGaps({1}).to_element()
    assert eval_word(BicyclicWord(0, "+", "qqpp")) == IdempotentGaps({1, 2}).to_element()


def test_generators_are_mutually_inverse():
    for n in (-3, 0, 4):
        for orient in "+-":
            assert gen(n, orient, "p").inverse() == gen(n, orient, "q")


def test_normal_form_examples():
    assert normal_form("pq") == (0, 0)
    assert normal_form("qp") == (1, 1)
    assert normal_form("pqqp") == (1, 1)
    with pytest.raises(ValueError):
        normal_form("px")


def test_normal_form_matches_evaluation():
    for length in range(8):
        for letters in map("".join, product("pq", repeat=length)):
            a, b = normal_form(letters)
            w = BicyclicWord(2, "+", letters)
            assert eval_word(w) == eval_word(BicyclicWord(2, "+", "q" * a + "p" * b))


def test_faithfulness_short_words():
    by_nf = {}
    for length in range(8):
        for letters in map("".join, product("pq", repeat=length)):
            nf = normal_form(letters)
            el = eval_word(BicyclicWord(0, "+", letters))
            if nf in by_nf:
                assert by_nf[nf] == el
            else:
                by_nf[nf] = el
    elements = list(by_nf.values())
    assert len(set(elements)) == len(elements)


def test_distinct_copies_have_distinct_generators():
    gens = {(n, o): (gen(n, o, "p"), gen(n, o, "q")) for n in range(-5, 6) for o in "+-"}
    assert len(set(gens.values())) == len(gens)


def test_words_evaluate_print_and_reject_bad_letters():
    for w in (BicyclicWord(2, "-", "pqq"), BicyclicWord(-1, "+", "qp"), BicyclicWord(0, "+", "")):
        assert w.element() == eval_word(w)
        # the text is a statement of the expression language for the same element
        assert Evaluator().run(w.to_text()) == w.element()
    assert BicyclicWord(2, "-", "pqq").to_text() == "a-(2) * b-(2) * b-(2)"
    assert BicyclicWord(0, "+", "").to_text() == "id"
    with pytest.raises(ValueError, match="letters must be 'p' or 'q', got 'x'"):
        eval_word(BicyclicWord(0, "+", "px"))


def test_idempotent_ladder():
    for n in (-4, 0, 3):
        for a in range(5):
            el = eval_word(BicyclicWord(n, "+", "q" * a + "p" * a))
            assert el == IdempotentGaps(set(range(n + 1, n + 1 + a))).to_element()
