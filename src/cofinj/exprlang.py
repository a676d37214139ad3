"""Expression language over both monoids: literals, products, inverses,
predicates, and the function forms exposed by the CLI.

Grammar (whitespace-insensitive):

    stmt    := 'solve' prod '=' prod | cmp
    cmp     := prod (('~R'|'~L'|'~H'|'~mg'|'<=') prod)?
    prod    := unary ('*' unary)*
    unary   := atom ('^-1')*
    atom    := literal | call | '(' cmp (',' cmp)? ')' | '{' list '}' | '?'
    literal := seg[...] | am[...] | E{...} | a+(n) | b+(n) | a-(n) | b-(n)
             | id | true | false | integer

A '(x, y)' form is a pair value, '{...}' a set value, and '?' is only legal
as the leftmost or rightmost factor of the product on the left of '=' in a
solve statement.  '*' is composition in diagram order (left factor acts
first) and '^-1' is inversion.
"""

from __future__ import annotations

import random
import re
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

from . import almost as _almost
from . import bicyclic as _bicyclic
from . import congruence as _congruence
from . import green as _green
from . import topology as _topology
from .core import IdempotentGaps, InvalidElementError, _is_int, _PieceMap, identity, parse_element, shift

# The deepest nesting of '(', '{' and calls that a statement may have.  Each
# level costs the parser, the evaluator and the printer a few Python frames,
# so this keeps a statement well inside the interpreter's recursion limit;
# deeper input is a ParseError.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message, pos, line, col, expected=()):
        self.message = message
        self.pos = pos
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        tail = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{tail}")


class EvalError(ValueError):
    pass


# -- named forms and predicates --------------------------------------------------


def _element(v, where):
    if not isinstance(v, _PieceMap):
        raise EvalError(f"{where} expects an element, got {format_value(v)}")
    return v


def _idempotent(v, where):
    if not _element(v, where).is_idempotent():
        raise EvalError(f"{where} expects an idempotent, got {format_value(v)}")
    return IdempotentGaps.from_element(v)


def _is(v, where, test, what):
    if not test(v):
        raise EvalError(f"{where} expects {what}")
    return v


def _word(node, where):
    """The letters of a product of generators of one bicyclic copy, read off the syntax tree, so none is built."""
    items = node.items if isinstance(node, Prod) else [node]
    for item in items:
        if not isinstance(item, Gen):
            raise EvalError(f"{where} expects a product of bicyclic generators")
        if (item.index, item.orientation) != (items[0].index, items[0].orientation):
            raise EvalError(f"{where} expects generators from a single bicyclic copy")
    return "".join(item.letter for item in items)


# e: element, i: idempotent, n: neighborhood (N: one ahead of other arguments), z: integer, w: nf's word
_NEIGHBORHOOD = partial(_is, test=lambda v: isinstance(v, _topology.BasicNeighborhood), what="a neighborhood")
_KINDS = {"e": _element, "i": _idempotent, "n": _NEIGHBORHOOD, "w": _word,
          "N": partial(_NEIGHBORHOOD, what="a neighborhood as its first argument"),
          "z": partial(_is, test=_is_int, what="an integer")}


def _basic(center, pins, flavor):
    try:
        return _topology.BasicNeighborhood(center, pins or (), flavor)
    except InvalidElementError as e:
        raise EvalError(str(e)) from None


_Form = namedtuple("_Form", "kinds pins checks value")


def _form(name, kinds, value):
    """A row of ``_FORMS``: the argument kinds, then ';' when pins follow, a check per argument, and the value."""
    where = repr(name) if name == "<=" else name  # quoted, as '*' and '^-1' are
    args = kinds.rstrip(";")
    return _Form(args, kinds.endswith(";"), tuple(partial(_KINDS[k], where=where) for k in args), value)


# each value reaches the library through a module attribute at call time, so a patched attribute is what runs
_FORMS = {name: _form(name, kinds, value) for name, kinds, value in [
    ("shift", "z", lambda ev, k: shift(k)),
    ("h", "e", lambda ev, x: tuple(_congruence.mgc_signature(x))),
    ("F_min", "e", lambda ev, x: frozenset(_almost.minimal_exceptions(x))),
    ("nf", "w", lambda ev, word: _bicyclic.normal_form(word)),
    ("in", "Ne", lambda ev, nb, x: _topology.member(nb, x)),
    ("sample", "n", lambda ev, nb: _almost.canonicalize(_topology.sample_member(nb, ev.rng))),
    ("nbhd", "e;", lambda ev, x, pins: _basic(x, pins, "W")),
    ("nbhd_h", "e;", lambda ev, x, pins: _basic(x, pins, "H")),
    ("cover", "ee;", lambda ev, a, b, pins: _topology.product_cover(a, b, pins)),
    ("audit_cover", "ee;", lambda ev, a, b, pins: _topology.audit_product_cover(a, b, pins, ev.rng)),
    ("audit_inv", "e;", lambda ev, g, pins: _topology.audit_inverse_cover(g, pins, ev.rng)),
    ("audit_sep", "ee", lambda ev, a, b: _topology.audit_separate(a, b, ev.rng)),
    # the predicates parse as two-argument calls named by their operators
    ("~R", "ee", lambda ev, a, b: _green.r_equiv(a, b)),
    ("~L", "ee", lambda ev, a, b: _green.l_equiv(a, b)),
    ("~H", "ee", lambda ev, a, b: _green.h_equiv(a, b)),
    ("~mg", "ee", lambda ev, a, b: _congruence.mgc_equiv(a, b)),
    ("<=", "ii", lambda ev, e, f: e.leq(f)),
]}


# -- tokenizer ------------------------------------------------------------------

_TOKEN_SPEC = [
    ("SEG", r"seg\[[^\[\]]*\]"),
    ("AM", r"am\[[^\[\]]*\]"),
    ("EGAPS", r"E\{[^{}]*\}"),
    ("GEN", r"[ab][+-]\(\s*[+-]?\d+\s*\)"),
    ("INV", r"\^-1"),
    # the rows named by an operator, longest first
    ("PRED", "|".join(re.escape(n) for n in sorted(_FORMS, key=len, reverse=True) if not n.isidentifier())),
    ("NAME", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("INT", r"[+-]?\d+"),
    ("OP", r"[*(),;={}?]"),
    ("WS", r"\s+"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{n}>{p})" for n, p in _TOKEN_SPEC))


@dataclass
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            line, col = _line_col(text, pos)
            raise ParseError(f"unexpected character {text[pos]!r}", pos, line, col)
        if m.lastgroup != "WS":
            kind = m.lastgroup
            tok = m.group()
            if kind == "OP":
                kind = tok
            out.append(Token(kind, tok, pos))
        pos = m.end()
    out.append(Token("EOF", "", pos))
    return out


def _line_col(text, pos):
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


# -- syntax tree ------------------------------------------------------------------


@dataclass
class Lit:
    value: object


@dataclass
class Gen:
    index: int
    orientation: str
    letter: str


@dataclass
class Prod:
    items: list


@dataclass
class Inv:
    item: object


@dataclass
class Call:
    name: str
    args: list
    pins: list | None = None


@dataclass
class Pair:
    left: object
    right: object


@dataclass
class SetLit:
    items: list


@dataclass
class Hole:
    pass


@dataclass
class Solve:
    factors: list
    rhs: object


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        # each '(' and '{' opens one level of recursion; calls open theirs with '('
        depth = 0
        for i, t in enumerate(self.toks):
            depth += (t.kind in ("(", "{")) - (t.kind in (")", "}"))
            if depth > MAX_NESTING:
                self.i = i
                self.fail(f"nesting deeper than {MAX_NESTING} levels")

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message, expected=(), pos=None):
        pos = self.peek().pos if pos is None else pos
        line, col = _line_col(self.text, pos)
        raise ParseError(message, pos, line, col, expected)

    def expect(self, kind) -> Token:
        if self.peek().kind != kind:
            self.fail(f"got {self.peek().text or 'end of input'!r}", expected=(kind,))
        return self.next()

    # statement := 'solve' prod '=' prod | cmp
    def parse_stmt(self):
        t = self.peek()
        if t.kind == "NAME" and t.text == "solve":
            self.next()
            factors = self.parse_prod_items(allow_hole=True)
            self.expect("=")
            node = Solve(factors, self.parse_prod())
        else:
            node = self.parse_cmp()
        if self.peek().kind != "EOF":
            self.fail(f"trailing input {self.peek().text!r}", expected=("EOF",))
        return node

    def parse_cmp(self):
        left = self.parse_prod()
        t = self.peek()
        if t.kind == "PRED":
            self.next()
            return Call(t.text, [left, self.parse_prod()])
        return left

    def parse_prod(self):
        items = self.parse_prod_items(allow_hole=False)
        return items[0] if len(items) == 1 else Prod(items)

    def parse_prod_items(self, allow_hole: bool):
        items = [self.parse_unary(allow_hole)]
        while self.peek().kind == "*":
            self.next()
            items.append(self.parse_unary(allow_hole))
        return items

    def parse_unary(self, allow_hole: bool):
        node = self.parse_atom(allow_hole)
        while self.peek().kind == "INV":
            if isinstance(node, Hole):
                self.fail("'?' cannot be inverted")
            self.next()
            node = Inv(node)
        return node

    def parse_atom(self, allow_hole: bool):
        t = self.peek()
        if t.kind == "?":
            if not allow_hole:
                self.fail("'?' is only allowed in a solve statement")
            self.next()
            return Hole()
        if t.kind in ("SEG", "EGAPS", "AM"):
            self.next()
            return Lit(_almost.parse_almost(t.text) if t.kind == "AM" else parse_element(t.text))
        if t.kind == "GEN":
            self.next()
            # the token is a letter, a sign, and an integer in parentheses, maybe with blanks around it
            digits = t.text[3:-1].strip()
            letter = "p" if t.text[0] == "a" else "q"
            return Gen(self._int(digits, t.pos + t.text.index(digits, 3)), t.text[1], letter)
        if t.kind == "INT":
            self.next()
            return Lit(self._int(t.text, t.pos))
        if t.kind == "NAME":
            return self.parse_name()
        if t.kind == "(":
            self.next()
            first = self.parse_cmp()
            if self.peek().kind == ",":
                self.next()
                first = Pair(first, self.parse_cmp())
            self.expect(")")
            return first
        if t.kind == "{":
            self.next()
            items = self._items(self.parse_cmp, "}")
            self.expect("}")
            return SetLit(items)
        self.fail(
            f"got {t.text or 'end of input'!r}",
            expected=("literal", "function call", "'('", "'{'"),
        )

    def parse_name(self):
        t = self.next()
        name = t.text
        if name == "id":
            return Lit(identity())
        if name in ("true", "false"):
            return Lit(name == "true")
        form = _FORMS.get(name)
        if form is not None:
            self.expect("(")
            args = [self.parse_cmp()]
            for _ in form.kinds[1:]:
                self.expect(",")
                args.append(self.parse_cmp())
            pins = None
            if form.pins:
                self.expect(";")
                pins = self._items(self._pin, ")")
            self.expect(")")
            return Call(name, args, pins)
        self.fail(f"unknown name {name!r}", ("id", "true", "false", *sorted(filter(str.isidentifier, _FORMS))), t.pos)

    def _items(self, read, close):
        """What ``read`` reads, separated by ',', up to the token ``close``, which is left to the caller."""
        items = [] if self.peek().kind == close else [read()]
        while items and self.peek().kind == ",":
            self.next()
            items.append(read())
        return items

    def _pin(self) -> int:
        t = self.expect("INT")
        return self._int(t.text, t.pos)

    def _int(self, digits, pos) -> int:
        try:
            return int(digits)
        except ValueError:
            self.fail("integer past the interpreter's digit limit", pos=pos)


def parse(text: str):
    """Parse one statement; raises ParseError with line/column on bad input."""
    return _Parser(text).parse_stmt()


# -- evaluation ------------------------------------------------------------------


class Evaluator:
    """Evaluates parsed statements; owns the RNG used by sampling forms."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def eval(self, node):
        return self._eval(node)

    def run(self, text: str):
        return self._eval(parse(text))

    def _eval(self, node):
        if isinstance(node, Lit):
            return node.value
        if isinstance(node, Gen):
            return _bicyclic.gen(node.index, node.orientation, node.letter)
        if isinstance(node, Prod):
            vals = [self._eval(n) for n in node.items]
            out = vals[0]
            for v in vals[1:]:
                out = _almost.canonicalize(_element(out, "'*'") * _element(v, "'*'"))
            return out
        if isinstance(node, Inv):
            # inversion is an involution, so a '^-1' chain inverts once when its length is odd
            chain = 0
            while isinstance(node, Inv):
                node, chain = node.item, chain + 1
            v = _element(self._eval(node), "'^-1'")
            return _almost.canonicalize(v.inverse() if chain % 2 else v)
        if isinstance(node, Call):
            return self._call(node)
        if isinstance(node, Pair):
            return (_almost.canonicalize(self._eval(node.left)), _almost.canonicalize(self._eval(node.right)))
        if isinstance(node, SetLit):
            return frozenset(_almost.canonicalize(self._eval(n)) for n in node.items)
        if isinstance(node, Solve):
            return self._solve(node)
        if isinstance(node, Hole):
            raise EvalError("'?' outside a solve statement")
        raise EvalError(f"cannot evaluate {node!r}")
    def _call(self, node):
        """Evaluate a named form or a predicate by its row in ``_FORMS``."""
        form = _FORMS.get(node.name)
        if form is None:
            for a in node.args:
                self._eval(a)
            raise EvalError(f"unknown function {node.name!r}")
        # every argument but a word is evaluated, and then each is checked, left to right; a hand-built
        # call with another number of arguments than its row is a ValueError
        args = [a if kind == "w" else self._eval(a) for kind, a in zip(form.kinds, node.args, strict=True)]
        args = [check(v) for check, v in zip(form.checks, args)]
        if form.pins:
            args.append(node.pins)
        return form.value(self, *args)

    def _solve(self, node):
        holes = [i for i, f in enumerate(node.factors) if isinstance(f, Hole)]
        if len(holes) != 1:
            raise EvalError("a solve statement needs exactly one '?'")
        if holes[0] not in (0, len(node.factors) - 1):
            raise EvalError("the '?' must be the leftmost or rightmost factor")
        known = [f for f in node.factors if not isinstance(f, Hole)]
        if not known:
            raise EvalError("the known side of a solve statement is empty")
        a = self._eval(Prod(known))
        b = self._eval(node.rhs)
        solve = _green.solve_left if holes[0] == 0 else _green.solve_right
        sols = solve(_element(a, "solve"), _element(b, "solve"))
        return frozenset(_almost.canonicalize(x) for x in sols)


# -- value formatting ---------------------------------------------------------------


def _sort_key(v):
    if isinstance(v, bool):
        return (0, str(v))
    if isinstance(v, int):
        return (1, v)
    return (2 if isinstance(v, _PieceMap) else 3, format_value(v))


def format_value(v) -> str:
    """Canonical text of an evaluator result; parses back to an equal value."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, _PieceMap):
        return _almost.canonicalize(v).to_text()
    if isinstance(v, _topology.BasicNeighborhood):
        return v.to_text()
    if isinstance(v, tuple) and len(v) == 2:
        return f"({format_value(v[0])}, {format_value(v[1])})"
    if isinstance(v, (frozenset, set)):
        # an element's or a nested value's sort key is its text, so no member is formatted twice
        keyed = sorted((k, k[1] if k[0] >= 2 else format_value(x)) for x in v for k in (_sort_key(x),))
        return "{" + ", ".join(text for _, text in keyed) + "}"
    raise EvalError(f"cannot format {v!r}")
