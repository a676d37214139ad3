"""The ``seg[...]`` and ``am[...]`` readers against the regex readers.

``parse_element`` and ``parse_almost`` drop the blanks that the grammar
allows next to a separator and read the rest with bulk string passes.  The
regex readers in ``helpers`` (``_parse_element_by_regex`` and
``_parse_almost_by_regex``) read every spelling one token at a time and are
the reference here.  Printed text of random elements, with offsets of 2^60
and gaps 10^12 wide, must read back as the element, and so must that text
with blanks around its separators; perturbed text must give the same value,
or the same exception class and message, from the library and the reference.
"""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofinj import almost as am
from cofinj.core import NEG_INF, POS_INF, InvalidElementError, MonotoneElement, parse_element, shift

from helpers import _parse_almost_by_regex, _parse_element_by_regex, _ref_quoted

WIDE = 2**60
BIG = 10**12
CHECK = settings(max_examples=300, deadline=None, derandomize=True, database=None)

OFFSETS = st.one_of(st.integers(-3, 3), st.sampled_from([WIDE, -WIDE, WIDE + 1]), st.integers(-WIDE, WIDE))
WIDTHS = st.one_of(st.integers(0, 3), st.just(BIG), st.integers(0, BIG))


@st.composite
def monotone(draw):
    """A canonical element of one to nine pieces: between pieces a domain gap and a range gap, not both empty."""
    offset = draw(OFFSETS)
    end = draw(st.one_of(st.integers(-4, 4), OFFSETS))
    segs, start = [], NEG_INF
    for _ in range(draw(st.integers(0, 8))):
        g, r = draw(WIDTHS), draw(WIDTHS)
        if g == r == 0:
            g = r = 1
        segs.append((start, end, offset))
        start, offset = end + 1 + g, offset + r - g
        end = start + draw(WIDTHS)
    segs.append((start, POS_INF, offset))
    return MonotoneElement(segs)


@st.composite
def almost(draw):
    """A random element with up to 24 middle points, its window and its images moved by up to 2^60."""
    a = am.random_almost(
        draw(st.integers(0, 2**32)),
        max_offset=3,
        window=draw(st.integers(1, 20)),
        max_middle=draw(st.integers(0, 24)),
    )
    return shift(draw(OFFSETS)) * a * shift(draw(OFFSETS))


def _outcome(read, text):
    """What reading ``text`` gives: the element's class and pieces, or the exception's class and message."""
    try:
        e = read(text)
    except Exception as err:  # any exception must match the reference's, whatever its class
        return type(err), str(err)
    return type(e), e.pieces


def _same_on_both_paths(text):
    if "am[" in text:
        read, reference = am.parse_almost, _parse_almost_by_regex
    else:
        read, reference = parse_element, _parse_element_by_regex
    assert _outcome(read, text) == _outcome(reference, text), text


# -- printed text ----------------------------------------------------------------


@CHECK
@given(monotone())
def test_printed_segment_lists_read_back(e):
    text = e.to_seg_text()
    assert parse_element(text) == e
    assert _parse_element_by_regex(text) == e


@CHECK
@given(almost())
def test_printed_almost_literals_read_back(a):
    text = a.to_text()
    assert am.parse_almost(text) == a
    assert _parse_almost_by_regex(text) == a


# -- perturbed text ----------------------------------------------------------------

BLANKS = [" ", "\t", "\n", "\u00a0", "\u2003"]
# Arabic-Indic three, fullwidth seven and mathematical bold seven are decimal digits; superscript two is not
ODD_DIGITS = ["\u0663", "\uff17", "\U0001d7d5", "\u00b2"]
SEPARATORS = [", ", "),(", "..", ",", "->", ";", "=", "(", ")"]
NOISE = [*BLANKS, *ODD_DIGITS, "_", "+", "-", ",", ".", ";", ">", "(", ")", "[", "]", "=", "i", "n", "f", "d", "0", "7"]


def _at(draw, text, pattern):
    """The span of one match of ``pattern`` in ``text``, or None when there is none."""
    spans = [m.span() for m in re.finditer(pattern, text)]
    return draw(st.sampled_from(spans)) if spans else None


def _legal_blanks(draw, text):
    """Runs of blanks on both sides of every separator, and inside the brackets, where the grammar allows them."""
    i = text.find("[") + 1
    runs = st.text(st.sampled_from(BLANKS), max_size=3)
    inner = re.sub(r"\.\.|->|[(),;=]", lambda m: draw(runs) + m[0] + draw(runs), text[i:-1])
    return text[:i] + draw(runs) + inner + draw(runs) + text[-1:]


def _blank(draw, text):
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(st.sampled_from(BLANKS)) + text[i:]


def _infinity(draw, text):
    span = _at(draw, text, r"[+-]?inf|[+-]?\d+")
    if span is None:
        return text
    new = draw(st.sampled_from(["-inf", "+inf", "inf", "-inf-inf", "+-inf", "-in f"]))
    return text[: span[0]] + new + text[span[1] :]


def _swap_infinities(draw, text):
    return text.replace("-inf", "\0").replace("+inf", "-inf").replace("\0", "+inf")


def _underscore(draw, text):
    span = _at(draw, text, r"\d(?=\d)")
    return text if span is None else text[: span[1]] + "_" + text[span[1] :]


def _odd_digit(draw, text):
    span = _at(draw, text, r"\d")
    return text if span is None else text[: span[0]] + draw(st.sampled_from(ODD_DIGITS)) + text[span[1] :]


def _separator(draw, text):
    span = _at(draw, text, "|".join(map(re.escape, SEPARATORS)))
    if span is None:
        return text
    lo, hi = span
    how = draw(st.sampled_from(["double", "drop", "trail"]))
    if how == "double":
        return text[:hi] + text[lo:hi] + text[hi:]
    if how == "drop":
        return text[:lo] + text[hi:]
    return text[:-1] + text[lo:hi] + "]"


def _sign_after_digit(draw, text):
    span = _at(draw, text, r"\d")
    return text if span is None else text[: span[1]] + draw(st.sampled_from("+-")) + text[span[1] :]


def _repeated_point(draw, text):
    span = _at(draw, text, r"[+-]?\d+(?=->)")
    if span is None:
        return text
    entry = f"{text[span[0]:span[1]]}->{draw(st.integers(-30, 30))}"
    where = draw(st.sampled_from(["front", "back"]))
    if where == "front":
        return text.replace("; ", f"; {entry}, ", 1)
    return text[:-1] + f", {entry}]"


def _empty_entry(draw, text):
    i = text.find(";")
    if i < 0:
        return text
    return text[: i + 1] + draw(st.sampled_from([" ,", ", ", " , ,", ","])) + text[i + 1 :]


def _stray_number(draw, text):
    """A digit or sign next to a separator or letter, where the bulk readers' skeleton check cannot see it."""
    span = _at(draw, text, r"[^\d+-]")
    if span is None:
        return text
    i = draw(st.sampled_from(span))
    return text[:i] + draw(st.sampled_from("07+-")) + text[i:]


def _characters(draw, text):
    """One to three characters inserted, deleted, doubled or replaced."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(NOISE))
        how = draw(st.sampled_from(["insert", "delete", "double", "replace"]))
        if how == "insert":
            text = text[:i] + c + text[i:]
        elif how == "delete":
            text = text[:i] + text[i + 1 :]
        elif how == "double":
            text = text[:i] + text[i : i + 1] + text[i:]
        else:
            text = text[:i] + c + text[i + 1 :]
    return text


PERTURBATIONS = [
    _blank,
    _infinity,
    _swap_infinities,
    _underscore,
    _odd_digit,
    _separator,
    _sign_after_digit,
    _repeated_point,
    _empty_entry,
    _stray_number,
    _characters,
    _legal_blanks,
]


NARROW_ALMOST = st.builds(
    am.random_almost, st.integers(0, 2**32), st.just(3), st.integers(1, 6), st.integers(0, 6)
)
PERTURBED = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _perturbed(data, perturb, elements, printed):
    """Printed text of a drawn element after ``perturb`` and, half the time, one more drawn perturbation."""
    text = perturb(data.draw, printed(data.draw(elements)))
    if data.draw(st.booleans()):
        text = data.draw(st.sampled_from(PERTURBATIONS))(data.draw, text)
    return text


@pytest.mark.parametrize("perturb", PERTURBATIONS, ids=lambda f: f.__name__.strip("_"))
@PERTURBED
@given(data=st.data())
def test_perturbed_segment_lists_read_as_the_regex_reader_reads_them(perturb, data):
    _same_on_both_paths(_perturbed(data, perturb, monotone(), MonotoneElement.to_seg_text))


@pytest.mark.parametrize("perturb", PERTURBATIONS, ids=lambda f: f.__name__.strip("_"))
@PERTURBED
@given(data=st.data())
def test_perturbed_almost_literals_read_as_the_regex_reader_reads_them(perturb, data):
    elements = st.one_of(NARROW_ALMOST, almost())
    _same_on_both_paths(_perturbed(data, perturb, elements, am.AlmostMonotoneElement.to_text))


@PERTURBED
@given(monotone(), st.data())
def test_blank_spelled_segment_lists_read_back(e, data):
    text = _legal_blanks(data.draw, e.to_seg_text())
    assert parse_element(text) == e
    assert _parse_element_by_regex(text) == e


@PERTURBED
@given(st.one_of(NARROW_ALMOST, almost()), st.data())
def test_blank_spelled_almost_literals_read_back(a, data):
    text = _legal_blanks(data.draw, a.to_text())
    assert am.parse_almost(text) == a
    assert _parse_almost_by_regex(text) == a


@pytest.mark.parametrize(
    "text",
    [
        # blanks between and inside tokens
        "seg[ (-inf..0,+0),(2..+inf,+1)]",
        "seg[(-inf..0,+0), (2..+inf,+1)]",
        "seg[(-inf .. 0,+0),(2..+inf,+1)]",
        "seg[(-inf..0,+0),(2..+inf,+1 )]",
        "seg[(-inf..0,+0),(2..+inf,+ 1)]",
        "seg[(-inf..0,+0),(2..+ inf,+1)]",
        "seg[(-inf..0,+0),(2..+inf,+1)\n]",
        "am[d=0,L=0,u=3,R=0; 1->1 ]",
        "am[d=0,L=0,u=3,R=0;  1->1]",
        "am[d=0,L=0,u=3,R=0;1->1]",
        "am[d=0,L=0,u=3,R=0; 1 ->1]",
        "am[d=0,L=0,u=3,R=0; 1->\t1]",
        "am[d=0,L=0,u=4,R=0; 1->2,2->1]",
        "am[d=0,L=0,u=4,R=0; 1->2 , 2->1]",
        "am[ d=0,L=0,u=3,R=0;]",
        "am[d=0,L=0,u=3,R=0; ]",
        "am[d=0 ,L=0,u=3,R=0;]",
        # infinities swapped or moved
        "seg[(+inf..0,+0),(2..-inf,+1)]",
        "seg[(-inf..0,+0),(-inf..+inf,+1)]",
        "seg[(-inf..+inf,+0),(2..+inf,+1)]",
        "seg[(0..+inf,+0)]",
        "seg[(-inf..-inf,+0)]",
        "seg[(inf..+inf,+0)]",
        "seg[(-inf..+inf,-inf)]",
        "seg[(-inf..+inf,+0),(-inf..+inf,+0)]",
        # an underscore inside a number
        "seg[(-inf..1_0,+0),(12..+inf,+1)]",
        "seg[(-inf..0,+0),(2..+inf,+1_1)]",
        "am[d=0,L=0,u=1_0,R=0; 1->1]",
        "am[d=0,L=0,u=3,R=0; 1->1_0]",
        # non-ASCII digits
        "seg[(-inf..\u0663,+0),(5..+inf,+1)]",
        "seg[(-inf..0,+0),(2..+inf,+\uff17)]",
        "seg[(-inf..0,+0),(2..+inf,+\u00b2)]",
        "am[d=0,L=0,u=\u0663,R=0; 1->1]",
        "am[d=0,L=0,u=3,R=0; \U0001d7d9->1]",
        # doubled, missing or trailing separators
        "seg[(-inf..0,+0),,(2..+inf,+1)]",
        "seg[(-inf..0,+0)(2..+inf,+1)]",
        "seg[(-inf..0,+0),(2..+inf,+1),]",
        "seg[(-inf...0,+0),(2..+inf,+1)]",
        "seg[(-inf.0,+0),(2..+inf,+1)]",
        "seg[(-inf..0,,+0),(2..+inf,+1)]",
        "seg[(-inf..0+0),(2..+inf,+1)]",
        "seg[((-inf..0,+0),(2..+inf,+1)]",
        "seg[]",
        "am[d=0,L=0,u=3,R=0; 1->1,]",
        "am[d=0,L=0,u=4,R=0; 1->2,, 2->1]",
        "am[d=0,L=0,u=4,R=0; 1->2 2->1]",
        "am[d=0,L=0,u=3,R=0; 1-->1]",
        "am[d=0,L=0,u=3,R=0; 1>1]",
        "am[d=0,L=0,u=3,R=0; 1->->1]",
        "am[d=0,,L=0,u=3,R=0;]",
        "am[d=0,L=0,u=3,R=0;;]",
        "am[d==0,L=0,u=3,R=0;]",
        "am[d=0,L=0,u=3,R=0]",
        # a sign after a digit, or two signs
        "seg[(-inf..0-,+0),(2..+inf,+1)]",
        "seg[(-inf..0,+0),(2..+inf,1+)]",
        "seg[(-inf..0,+0),(2..+inf,+-1)]",
        "seg[(-inf..+0,0),(2..+inf,+1)]",
        "am[d=0-,L=0,u=3,R=0;]",
        "am[d=0,L=0,u=3,R=0; 1->1-]",
        "am[d=0,L=0,u=3,R=0; +1->+1]",
        "am[d=0,L=0,u=3,R=0; 1+->1]",
        # a repeated middle point, before and after a malformed entry
        "am[d=0,L=0,u=3,R=0; 1->1, 1->2]",
        "am[d=0,L=0,u=3,R=0; 1->1, 1->1]",
        "am[d=0,L=0,u=4,R=0; 1->2, 2->1, 1->3, x]",
        "am[d=0,L=0,u=4,R=0; 1->2, x, 1->3]",
        # a stray number or sign where the skeleton check cannot see it
        "seg[(-inf..0,+0)5,(2..+inf,+1)]",
        "seg[(-inf..0,+0),(2..+inf,+1)5]",
        "seg[5(-inf..0,+0),(2..+inf,+1)]",
        "seg[(-inf.5.0,+0),(2..+inf,+1)]",
        "seg[(-i5nf..0,+0),(2..+inf,+1)]",
        "seg[(-inf..0,+0),(..+inf,+1)]",
        "am[d=0,L=0,u=3,R=0;5]",
        "am[d=0,L=0,u=3,R=0;-]",
        "am[d=0,L=0,u=3,R=0;5 1->1]",
        "am[d=0,L=0,u=4,R=0; 1->2,5 2->1]",
        "am[d=0,L=0,u=3,R=0; 1->1]5",
        "5am[d=0,L=0,u=3,R=0; 1->1]",
        "am[d=0,L=0,u=3,R=0; 1-5>1]",
        "am[d=0,L5=0,u=3,R=0;]",
        "am[d=0,5L=0,u=3,R=0;]",
        # an empty entry
        "am[d=0,L=0,u=3,R=0; , 1->1]",
        "am[d=0,L=0,u=3,R=0; 1->1, ]",
        "am[d=0,L=0,u=3,R=0; 1->1, , 2->2]",
        # printed spellings whose values the checks reject
        "seg[(-inf..5,+0),(2..+inf,+1)]",
        "seg[(-inf..0,+5),(2..+inf,+1)]",
        "seg[(-inf..0,+0),(1..+inf,+0)]",
        "am[d=3,L=0,u=0,R=0;]",
        "am[d=0,L=0,u=3,R=0; 5->1]",
        "am[d=0,L=0,u=4,R=0; 1->2, 2->2]",
    ],
)
def test_perturbation_examples_read_as_the_regex_reader_reads_them(text):
    _same_on_both_paths(text)


def test_the_blank_spelled_literals_of_the_packaging_smoke_test():
    assert parse_element("seg[ (-inf..0,+0) , (2..+inf,+0) ]").to_text() == "E{1}"
    assert am.canonicalize(am.parse_almost("am[ d = 0 , L=0, u=\u0663, R=0 ; 1 -> 1 ]")).to_text() == "E{2}"
    with pytest.raises(InvalidElementError, match=r"\Amiddle point 1 listed twice\Z"):
        am.parse_almost("am[d=0,L=0,u=3,R=0; 1->1, 1->2]")


@pytest.mark.parametrize("text", ["E{1_0}", "E{0, 1_0}", " E{ 1_000 } "])
def test_an_underscore_in_a_gap_list_is_malformed(text):
    # int reads "1_0" as 10, and so does the regex reader; every other literal rejects an underscore
    with pytest.raises(InvalidElementError) as err:
        parse_element(text)
    assert str(err.value) == f"malformed gap list: {text!r}"


# -- integers past the digit limit ---------------------------------------------------


def test_integers_past_the_digit_limit_are_malformed_literals():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    huge = "9" * (limit + 1)
    entry = f"1->{huge}"
    cases = [
        (parse_element, f"seg[(-inf..0,+0),(1..+inf,+{huge})]", "malformed segment list: {text}"),
        (parse_element, f"seg[(-inf..{huge},+0),(1{huge}..+inf,+1)]", "malformed segment list: {text}"),
        (parse_element, f"seg[ (-inf..0,+0),(1..+inf,-{huge})]", "malformed segment list: {text}"),
        (parse_element, f"E{{0,{huge}}}", "malformed gap list: {text}"),
        (parse_element, f"shift({huge})", "not an element literal: {text}"),
        (parse_element, f" shift( -{huge} ) ", "not an element literal: {text}"),
        (am.parse_almost, f"am[d=0,L=0,u={huge},R=0;]", "not an almost-monotone literal: {text}"),
        (am.parse_almost, f"am[d=0,L=0,u=3,R=-{huge}; 1->1]", "not an almost-monotone literal: {text}"),
        (am.parse_almost, f"am[d=0,L=0,u=3,R=0; {entry}]", "malformed middle entry: {entry}"),
        (am.parse_almost, f"am[d=0,L=0,u=3,R=0; 2->2,  {entry}]", "malformed middle entry: {entry}"),
        # a repeated point earlier in the text is reported first
        (am.parse_almost, f"am[d=0,L=0,u=3,R=0; 2->2, 2->1, {entry}]", "middle point 2 listed twice"),
    ]
    for read, text, message in cases:
        with pytest.raises(InvalidElementError) as err:
            read(text)
        # each literal is longer than 200 characters, so the message quotes its first 200
        assert str(err.value) == message.format(text=_ref_quoted(text), entry=_ref_quoted(entry))
        _same_on_both_paths(text)


# -- long literals in messages -----------------------------------------------------------


def test_a_message_quotes_a_long_literal_by_its_first_200_characters_and_its_length():
    """A malformed 10^6-character literal gives a message of under 300 characters, the same on both readers."""
    million = 10**6
    entry = "1->" + "2" * million + "x"
    cases = [
        (parse_element, "seg[" + "(0..1,+0)," * (million // 10) + "x]", "malformed segment list", None),
        (parse_element, "E{" + "1," * (million // 2) + "x}", "malformed gap list", None),
        (parse_element, "shift(" + "1" * million + "x)", "not an element literal", None),
        (am.parse_almost, "am[" + "d" * million + ";]", "not an almost-monotone literal", None),
        (am.parse_almost, f"am[d=0,L=0,u=3,R=0; 1->1, {entry}]", "malformed middle entry", entry),
    ]
    for read, text, what, quoted in cases:
        quoted = quoted or text
        with pytest.raises(InvalidElementError) as err:
            read(text)
        assert str(err.value) == f"{what}: {quoted[:200]!r}... ({len(quoted)} characters)"
        assert len(str(err.value)) < 300
        _same_on_both_paths(text)
    # up to 200 characters the whole literal is quoted, as before
    text = "seg[" + "x" * 196
    with pytest.raises(InvalidElementError) as err:
        parse_element(text)
    assert str(err.value) == f"not an element literal: {text!r}"
