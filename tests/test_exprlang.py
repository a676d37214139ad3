import json
import random
import sys

import pytest

from cofinj.core import IdempotentGaps, identity, parse_element, random_element, shift
from cofinj.exprlang import Call, Evaluator, EvalError, Lit, ParseError, format_value, parse
from cofinj import almost as am
from cofinj import cli
from cofinj.topology import BasicNeighborhood


@pytest.fixture
def ev():
    return Evaluator(seed=0)


# -- parsing ------------------------------------------------------------------------


def test_parse_product_and_inverse(ev):
    assert ev.run("a+(0) * b+(0)") == identity()
    assert ev.run("seg[(-inf..0,+0),(2..+inf,+1)]^-1") == parse_element(
        "seg[(-inf..0,+0),(2..+inf,+1)]"
    ).inverse()
    assert ev.run("shift(2)*shift(3)*shift(-5)") == identity()
    assert ev.run("shift(1)^-1^-1") == shift(1)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse("shift(2) *")
    assert e.value.line == 1 and e.value.col == 11
    assert "literal" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse("shift(2) ) id")
    assert e.value.expected == ("EOF",)
    with pytest.raises(ParseError):
        parse("nope(3)")
    with pytest.raises(ParseError):
        parse("")


def test_integers_past_the_digit_limit_are_parse_errors(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    huge = "9" * (limit + 1)
    # an INT atom, a generator index and a pin, each reported where its integer starts
    cases = [
        (huge, 1, 1),
        (f"shift({huge})", 1, 7),
        (f"h(-{huge})", 1, 3),
        (f"a+({huge})", 1, 4),
        (f"b-( -{huge} )", 1, 5),
        (f"nbhd(id; 0, {huge})", 1, 13),
        (f"id *\n  a-(+{huge})", 2, 6),
    ]
    for text, line, col in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col), text[:20]
        assert str(err.value) == f"{line}:{col}: integer past the interpreter's digit limit"
        assert cli.main(["--eval", text]) == 2
        assert capsys.readouterr() == ("", f"parse error: {err.value}\n")


def test_integers_take_a_leading_plus(ev):
    assert ev.run("shift(+3)") == shift(3)
    assert ev.run("nbhd(id; +1)") == ev.run("nbhd(id; 1)")
    assert ev.run("h(shift(+3) * shift(-1))") == (2, 2)
    assert ev.run("+7") == 7
    # as in the literals that already took it
    assert ev.run("a+(+1)") == ev.run("a+(1)")
    assert ev.run("am[d=0,L=+0,u=+3,R=0; +1->+2, 2->1]") == ev.run("am[d=0,L=0,u=3,R=0; 1->2, 2->1]")


def test_predicates(ev):
    assert ev.run("E{0,5} <= E{0}") is True
    assert ev.run("E{0} <= E{0,5}") is False
    assert ev.run("shift(1) ~H shift(5)") is True
    assert ev.run("a+(0) ~R id") is True
    assert ev.run("a+(0) ~L id") is False
    assert ev.run("id ~mg E{0}") is True
    with pytest.raises(EvalError):
        ev.run("shift(1) <= id")


def test_functions(ev):
    assert ev.run("h(shift(3))") == (3, 3)
    assert ev.run("h(a+(0))") == (0, 1)
    assert ev.run("F_min(am[d=0,L=0,u=6,R=0; 1->5, 2->3, 3->4])") == frozenset({1})
    assert ev.run("nf(a+(0)*b+(0))") == (0, 0)
    assert ev.run("nf(b+(0)*a+(0))") == (1, 1)
    with pytest.raises(EvalError):
        ev.run("nf(a+(0)*b+(1))")
    with pytest.raises(EvalError):
        ev.run("h(true)")


def test_nf_reads_its_word_without_building_generators(ev, monkeypatch):
    from cofinj import bicyclic

    calls = []
    gen = bicyclic.gen
    monkeypatch.setattr(bicyclic, "gen", lambda *args: calls.append(args) or gen(*args))
    assert ev.run("nf(a+(0)*b+(0))") == (0, 0)
    assert calls == []


# one statement per argument position of every function form, predicate and operator
_WRONG_ARGUMENTS = [
    ("shift(id)", "shift expects an integer"),
    ("h(3)", "h expects an element, got 3"),
    ("F_min(true)", "F_min expects an element, got true"),
    ("nf(a+(0) * 3)", "nf expects a product of bicyclic generators"),
    ("nf(id)", "nf expects a product of bicyclic generators"),
    ("in(3, id)", "in expects a neighborhood as its first argument"),
    ("in(nbhd(id;), 3)", "in expects an element, got 3"),
    ("sample(id)", "sample expects a neighborhood"),
    ("nbhd(3; )", "nbhd expects an element, got 3"),
    ("nbhd_h((id, id); 0)", "nbhd_h expects an element, got (id, id)"),
    ("cover(3, id; )", "cover expects an element, got 3"),
    ("cover(id, 3; )", "cover expects an element, got 3"),
    ("audit_cover({3}, id; )", "audit_cover expects an element, got {3}"),
    ("audit_cover(id, 3; )", "audit_cover expects an element, got 3"),
    ("audit_inv(nbhd(id;); )", "audit_inv expects an element, got nbhd(id; )"),
    ("audit_sep(3, id)", "audit_sep expects an element, got 3"),
    ("audit_sep(id, false)", "audit_sep expects an element, got false"),
    *[(f"3 {op} id", f"{op} expects an element, got 3") for op in ("~R", "~L", "~H", "~mg")],
    *[(f"id {op} 3", f"{op} expects an element, got 3") for op in ("~R", "~L", "~H", "~mg")],
    ("3 <= id", "'<=' expects an element, got 3"),
    ("E{0} <= shift(1)", "'<=' expects an idempotent, got shift(1)"),
    ("shift(1) <= E{0}", "'<=' expects an idempotent, got shift(1)"),
    ("3 * id", "'*' expects an element, got 3"),
    ("id * 3", "'*' expects an element, got 3"),
    ("3^-1", "'^-1' expects an element, got 3"),
    ("solve 3 * ? = id", "solve expects an element, got 3"),
    ("solve ? * id = 3", "solve expects an element, got 3"),
    # a name the parser never produces still fails after its arguments are evaluated
    (Call("nope", [Lit(3)]), "unknown function 'nope'"),
    (Call("nope", [Call("h", [Lit(3)])]), "h expects an element, got 3"),
]


@pytest.mark.parametrize("stmt, message", _WRONG_ARGUMENTS, ids=[str(s) for s, _ in _WRONG_ARGUMENTS])
def test_each_argument_check_has_its_message(ev, stmt, message):
    with pytest.raises(EvalError) as err:
        ev.run(stmt) if isinstance(stmt, str) else ev.eval(stmt)
    assert str(err.value) == message


def test_solve_statements(ev):
    assert ev.run("solve E{0}*? = E{0}") == frozenset({IdempotentGaps({0}).to_element(), identity()})
    assert ev.run("solve ?*shift(1) = shift(1)") == frozenset({identity()})
    assert ev.run("solve shift(1)*shift(1)*? = shift(2)") == frozenset({identity()})
    with pytest.raises(EvalError):
        ev.run("solve ?*? = id")
    with pytest.raises(EvalError):
        ev.run("solve shift(1)*?*shift(1) = id")
    with pytest.raises(ParseError):
        ev.run("? * id")


@pytest.mark.parametrize("stmt, col", [
    ("solve ?^-1 * id = id", 8),
    ("solve ?^-1 * ? = id", 8),
    ("solve id * ?^-1^-1 = id", 13),
])
def test_an_inverted_hole_is_a_parse_error_at_its_inverse(ev, stmt, col):
    with pytest.raises(ParseError) as e:
        ev.run(stmt)
    assert (e.value.message, e.value.line, e.value.col) == ("'?' cannot be inverted", 1, col)


def test_neighborhood_forms(ev):
    nb = ev.run("nbhd(id; 0, 5)")
    assert isinstance(nb, BasicNeighborhood) and nb.flavor == "W"
    assert ev.run("in(nbhd(id; 0), E{0})") is False
    assert ev.run("in(nbhd(id;), E{5})") is True
    assert ev.run("in(nbhd_h(id; 0), E{5})") is False
    assert ev.run("cover(shift(2), E{0}; 1)") == (frozenset({-2, 1}), frozenset({3}))
    with pytest.raises(EvalError):
        ev.run("nbhd(E{0}; 0)")


def test_sampling_forms_are_seed_deterministic():
    a = Evaluator(seed=9).run("sample(nbhd(id; 0))")
    b = Evaluator(seed=9).run("sample(nbhd(id; 0))")
    assert a == b
    assert Evaluator(seed=1).run("audit_cover(shift(2), E{0}; 1)") is True
    assert Evaluator(seed=1).run("audit_inv(a+(0); 5)") is True
    assert Evaluator(seed=1).run("audit_sep(shift(1), id)") is True


def test_mixed_monoid_products_canonicalize(ev):
    got = ev.run("am[d=0,L=0,u=6,R=0; 1->5, 2->3, 3->4] * a+(0)")
    assert isinstance(got, am.AlmostMonotoneElement)
    # an almost literal of the identity map stays in its class, with the identity's pieces
    ident = ev.run("am[d=0,L=0,u=3,R=0; 1->1, 2->2]")
    assert isinstance(ident, am.AlmostMonotoneElement)
    assert ident.pieces == identity().pieces
    # a non-monotone almost element times its inverse is an idempotent in segment form
    sq = ev.run("am[d=0,L=0,u=6,R=0; 1->5, 2->3, 3->4] * am[d=0,L=0,u=6,R=0; 1->5, 2->3, 3->4]^-1")
    assert sq == IdempotentGaps({4, 5}).to_element()


def test_pairs_canonicalize_their_members(ev, capsys):
    # an almost literal of a monotone map and its segment form are one pair member
    stmt = "{(am[d=0,L=0,u=1,R=0;], id), (id, id)}"
    assert ev.run(stmt) == frozenset({(identity(), identity())})
    assert format_value(ev.run(stmt)) == "{(id, id)}"
    assert ev.run(format_value(ev.run(stmt))) == ev.run(stmt)
    assert cli.main(["--eval", stmt]) == 0
    assert capsys.readouterr().out == "{(id, id)}\n"
    assert cli.main(["--format", "json", "--eval", stmt]) == 0
    items = json.loads(capsys.readouterr().out)["items"]
    assert len(items) == 1 and [v["type"] for v in items[0]["items"]] == ["monotone", "monotone"]
    # a bare literal keeps its class
    assert isinstance(ev.run("am[d=0,L=0,u=1,R=0;]"), am.AlmostMonotoneElement)


# -- printing round trips ----------------------------------------------------------


def test_round_trip_every_value_kind(ev):
    exprs = [
        "id",
        "shift(-7)",
        "E{0,5}",
        "seg[(-inf..0,+0),(2..+inf,+1)]",
        "am[d=0,L=0,u=6,R=0; 1->5, 2->3, 3->4]",
        "true",
        "42",
        "(3, 4)",
        "((1, 2), {3, 4})",
        "{}",
        "{E{0}, id, 3}",
        "h(shift(3))",
        "solve E{0}*? = E{0}",
        "nbhd(id; 0, 5)",
        "nbhd_h(a+(0); 1)",
        "cover(shift(2), E{0}; 1)",
        "F_min(am[d=0,L=0,u=6,R=0; 1->5, 2->3, 3->4])",
    ]
    for expr in exprs:
        v = ev.run(expr)
        text = format_value(v)
        again = ev.run(text)
        assert format_value(again) == text, expr


def test_round_trip_random_elements(ev):
    rng = random.Random(3)
    for _ in range(100):
        e = random_element(rng, 3, 3)
        assert ev.run(format_value(e)) == e
        a = am.random_almost(rng)
        assert ev.run(format_value(a)) == am.canonicalize(a)
