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
from dataclasses import dataclass

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


# -- tokenizer ------------------------------------------------------------------

_TOKEN_SPEC = [
    ("SEG", r"seg\[[^\[\]]*\]"),
    ("AM", r"am\[[^\[\]]*\]"),
    ("EGAPS", r"E\{[^{}]*\}"),
    ("GEN", r"[ab][+-]\(\s*[+-]?\d+\s*\)"),
    ("INV", r"\^-1"),
    ("PRED", r"~(?:mg|R|L|H)|<="),
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


_FUNCTIONS = {
    "shift": (1, False),
    "h": (1, False),
    "F_min": (1, False),
    "nf": (1, False),
    "in": (2, False),
    "sample": (1, False),
    "nbhd": (1, True),
    "nbhd_h": (1, True),
    "cover": (2, True),
    "audit_cover": (2, True),
    "audit_inv": (1, True),
    "audit_sep": (2, False),
}

# the relation predicates; each parses as a two-argument call named by its operator, as '<=' does
_RELATIONS = ("~R", "~L", "~H", "~mg")

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
            rhs = self.parse_prod()
            node = Solve(factors, rhs)
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
        if t.kind in ("SEG", "EGAPS"):
            self.next()
            return Lit(parse_element(t.text))
        if t.kind == "AM":
            self.next()
            return Lit(_almost.parse_almost(t.text))
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
                second = self.parse_cmp()
                self.expect(")")
                return Pair(first, second)
            self.expect(")")
            return first
        if t.kind == "{":
            self.next()
            items = []
            if self.peek().kind != "}":
                items.append(self.parse_cmp())
                while self.peek().kind == ",":
                    self.next()
                    items.append(self.parse_cmp())
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
        if name == "true":
            return Lit(True)
        if name == "false":
            return Lit(False)
        if name in _FUNCTIONS:
            nargs, has_pins = _FUNCTIONS[name]
            self.expect("(")
            args = [self.parse_cmp()]
            for _ in range(nargs - 1):
                self.expect(",")
                args.append(self.parse_cmp())
            pins = None
            if has_pins:
                self.expect(";")
                pins = []
                if self.peek().kind != ")":
                    pins.append(self._pin())
                    while self.peek().kind == ",":
                        self.next()
                        pins.append(self._pin())
            self.expect(")")
            return Call(name, args, pins)
        self.fail(f"unknown name {name!r}", ("id", "true", "false", *sorted(_FUNCTIONS)), t.pos)

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


def _need_element(v, where):
    if not isinstance(v, _PieceMap):
        raise EvalError(f"{where} expects an element, got {format_value(v)}")
    return v


def _need_idempotent(v, where):
    _need_element(v, where)
    if not v.is_idempotent():
        raise EvalError(f"{where} expects an idempotent, got {format_value(v)}")


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
                out = _almost.canonicalize(_need_element(out, "'*'") * _need_element(v, "'*'"))
            return out
        if isinstance(node, Inv):
            # inversion is an involution, so a '^-1' chain inverts once when its length is odd
            chain = 0
            while isinstance(node, Inv):
                node, chain = node.item, chain + 1
            v = _need_element(self._eval(node), "'^-1'")
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
        """Evaluate a named form or a predicate (a two-argument call named by its operator)."""
        name = node.name
        if name == "nf":
            # nf reads its word off the syntax tree, so the product is never built
            return _word_normal_form(node.args[0])
        args = [self._eval(a) for a in node.args]
        if name == "shift":
            if not _is_int(args[0]):
                raise EvalError("shift expects an integer")
            return shift(args[0])
        if name == "<=":
            for v in args:
                _need_idempotent(v, "'<='")
            e, f = map(IdempotentGaps.from_element, args)
            return e.leq(f)
        if name not in _FUNCTIONS and name not in _RELATIONS:
            raise EvalError(f"unknown function {name!r}")
        if name in ("in", "sample"):
            nb = args.pop(0)
            if not isinstance(nb, _topology.BasicNeighborhood):
                raise EvalError("in expects a neighborhood as its first argument" if name == "in"
                                else "sample expects a neighborhood")
        for v in args:
            _need_element(v, name)
        if name == "~R":
            return _green.r_equiv(*args)
        if name == "~L":
            return _green.l_equiv(*args)
        if name == "~H":
            return _green.h_equiv(*args)
        if name == "~mg":
            return _congruence.mgc_equiv(*args)
        if name == "h":
            return tuple(_congruence.mgc_signature(*args))
        if name == "F_min":
            return frozenset(_almost.minimal_exceptions(*args))
        if name in ("nbhd", "nbhd_h"):
            try:
                return _topology.BasicNeighborhood(*args, node.pins or (), "W" if name == "nbhd" else "H")
            except InvalidElementError as e:
                raise EvalError(str(e)) from None
        if name == "in":
            return _topology.member(nb, *args)
        if name == "sample":
            return _almost.canonicalize(_topology.sample_member(nb, self.rng))
        if name == "cover":
            return _topology.product_cover(*args, node.pins)
        if name == "audit_cover":
            return _topology.audit_product_cover(*args, node.pins, self.rng)
        if name == "audit_inv":
            return _topology.audit_inverse_cover(*args, node.pins, self.rng)
        return _topology.audit_separate(*args, self.rng)

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
        _need_element(a, "solve")
        _need_element(b, "solve")
        if holes[0] == 0:
            sols = _green.solve_left(a, b)
        else:
            sols = _green.solve_right(a, b)
        return frozenset(_almost.canonicalize(x) for x in sols)


def _word_normal_form(node):
    """Normal form (a, b) of a product of generators from one bicyclic copy."""
    items = node.items if isinstance(node, Prod) else [node]
    letters = []
    key = None
    for item in items:
        if not isinstance(item, Gen):
            raise EvalError("nf expects a product of bicyclic generators")
        if key is None:
            key = (item.index, item.orientation)
        elif key != (item.index, item.orientation):
            raise EvalError("nf expects generators from a single bicyclic copy")
        letters.append(item.letter)
    return _bicyclic.normal_form("".join(letters))


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
