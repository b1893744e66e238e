"""Textual language for q-series identities.

Grammar (precedence low to high):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' ('-')? INT)?
    atom    := INT | 'q' | 'f'INT | poch(a,m) | pochfin(a,m,n)
             | theta(sa,r,sb,s)
             | phi(ARG) | psi(ARG) | chi(ARG) | G(ARG) | H(ARG) | R(ARG)
             | dilate(e,t) | dissect(e,t,j) | negq(e)
             | '(' expr ')'
    ARG     := ('-')? 'q' ('^' INT)?

Whitespace-insensitive.  ``unparse`` emits canonical text that reparses
to an identical tree.

A manifest is a UTF-8 line-oriented file of identity records:

    # comment
    [name] (mod m)? : <lhs-expr> == <rhs-expr> @ anchor-text
"""

import re
import threading
from dataclasses import dataclass

from . import qfunctions
from .errors import EvaluationError, ManifestError, NonUnitConstantTerm, ParseError, UnknownSymbol
from .qfunctions import ThetaSpec
from .series import Series

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Q:
    pass


@dataclass(frozen=True)
class F:
    k: int


@dataclass(frozen=True)
class Poch:
    a: int
    m: int


@dataclass(frozen=True)
class PochFin:
    a: int
    m: int
    n: int


@dataclass(frozen=True)
class Theta:
    sign_a: int
    r: int
    sign_b: int
    s: int


@dataclass(frozen=True)
class Fun:
    """Named function atom phi/psi/chi/G/H/R applied to (-)q^t."""

    name: str
    neg: bool
    t: int


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Dilate:
    child: object
    t: int


@dataclass(frozen=True)
class NegQ:
    child: object


@dataclass(frozen=True)
class Dissect:
    child: object
    t: int
    j: int


FUN_NAMES = ("phi", "psi", "chi", "G", "H", "R")

# Deepest nesting of parentheses, function arguments and unary minus the
# parser accepts; each level costs up to six Python frames, so deeper input
# would end in RecursionError instead of a ParseError.
MAX_DEPTH = 100

# ---------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|([()+\-*/^,])")


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            line, col = _line_col(text, pos)
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        if m.group(1):
            kind = "int"
        elif m.group(2):
            kind = "name"
        else:
            kind = m.group(3)
        line, col = _line_col(text, pos)
        tokens.append(_Token(kind, m.group(0), line, col))
        pos = m.end()
    line, col = _line_col(text, len(text))
    tokens.append(_Token("end", "", line, col))
    return tokens


def _line_col(text, pos):
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    return line, pos - last_nl


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    @property
    def current(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind):
        tok = self.current
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok.line, tok.column)
        return self.advance()

    def fail(self, message):
        tok = self.current
        raise ParseError(message, tok.line, tok.column)

    # -- grammar ----------------------------------------------------------

    def parse_expr(self):
        node = self.parse_term()
        while self.current.kind in ("+", "-"):
            op = self.advance().kind
            right = self.parse_term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.current.kind in ("*", "/"):
            op = self.advance().kind
            right = self.parse_unary()
            node = Mul(node, right) if op == "*" else Div(node, right)
        return node

    def parse_unary(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"expression nested more than {MAX_DEPTH} levels deep")
        if self.current.kind == "-":
            self.advance()
            node = Neg(self.parse_unary())
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self):
        base = self.parse_atom()
        if self.current.kind == "^":
            self.advance()
            negative = False
            if self.current.kind == "-":
                self.advance()
                negative = True
            tok = self.expect("int")
            k = int(tok.text)
            return Pow(base, -k if negative else k)
        return base

    def parse_atom(self):
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text))
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            return self.parse_name()
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")

    def parse_name(self):
        tok = self.advance()
        name = tok.text
        if name == "q":
            return Q()
        if re.fullmatch(r"f\d+", name):
            k = int(name[1:])
            if k < 1:
                raise ParseError(f"f{k} is not defined", tok.line, tok.column)
            return F(k)
        if name == "poch":
            a, m = self.int_args(2)
            return Poch(a, m)
        if name == "pochfin":
            a, m, n = self.int_args(3)
            return PochFin(a, m, n)
        if name == "theta":
            sa, r, sb, s = self.int_args(4)
            if sa not in (1, -1) or sb not in (1, -1):
                raise ParseError("theta signs must be 1 or -1", tok.line, tok.column)
            return Theta(sa, r, sb, s)
        if name in FUN_NAMES:
            neg, t = self.parse_q_arg()
            return Fun(name, neg, t)
        if name == "dilate":
            self.expect("(")
            child = self.parse_expr()
            self.expect(",")
            t = self.signed_int()
            self.expect(")")
            return Dilate(child, t)
        if name == "dissect":
            self.expect("(")
            child = self.parse_expr()
            self.expect(",")
            t = self.signed_int()
            self.expect(",")
            j = self.signed_int()
            self.expect(")")
            return Dissect(child, t, j)
        if name == "negq":
            self.expect("(")
            child = self.parse_expr()
            self.expect(")")
            return NegQ(child)
        raise UnknownSymbol(f"unknown symbol {name!r}", tok.line, tok.column)

    def signed_int(self):
        negative = False
        if self.current.kind in ("-", "+"):
            negative = self.advance().kind == "-"
        tok = self.expect("int")
        value = int(tok.text)
        return -value if negative else value

    def int_args(self, count):
        self.expect("(")
        values = []
        for i in range(count):
            if i:
                self.expect(",")
            values.append(self.signed_int())
        self.expect(")")
        return values

    def parse_q_arg(self):
        """ARG := ('-')? 'q' ('^' INT)? inside phi/psi/chi/G/H/R."""
        self.expect("(")
        neg = False
        if self.current.kind == "-":
            self.advance()
            neg = True
        tok = self.expect("name")
        if tok.text != "q":
            raise ParseError(
                f"function argument must be q, q^t, -q, or -q^t, found {tok.text!r}",
                tok.line,
                tok.column,
            )
        t = 1
        if self.current.kind == "^":
            self.advance()
            t = int(self.expect("int").text)
            if t < 1:
                self.fail("dilation exponent must be >= 1")
        self.expect(")")
        return neg, t


def parse(text):
    """Parse an expression; raises :class:`ParseError` with line/column."""
    parser = _Parser(text)
    node = parser.parse_expr()
    parser.expect("end")
    return node


# ---------------------------------------------------------------------------
# Unparser

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node):
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, (Mul, Div)):
        return _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def unparse(node):
    """Canonical text form; ``parse(unparse(e)) == e`` for every tree."""
    return _unparse(node)


def _wrap(child, minimum):
    text = _unparse(child)
    if _prec(child) < minimum:
        return f"({text})"
    return text


def _unparse(node):
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, Q):
        return "q"
    if isinstance(node, F):
        return f"f{node.k}"
    if isinstance(node, Poch):
        return f"poch({node.a},{node.m})"
    if isinstance(node, PochFin):
        return f"pochfin({node.a},{node.m},{node.n})"
    if isinstance(node, Theta):
        return f"theta({node.sign_a},{node.r},{node.sign_b},{node.s})"
    if isinstance(node, Fun):
        arg = "-q" if node.neg else "q"
        if node.t != 1:
            arg += f"^{node.t}"
        return f"{node.name}({arg})"
    if isinstance(node, Add):
        return f"{_wrap(node.left, _PREC_ADD)} + {_wrap(node.right, _PREC_ADD + 1)}"
    if isinstance(node, Sub):
        return f"{_wrap(node.left, _PREC_ADD)} - {_wrap(node.right, _PREC_ADD + 1)}"
    if isinstance(node, Mul):
        return f"{_wrap(node.left, _PREC_MUL)}*{_wrap(node.right, _PREC_MUL + 1)}"
    if isinstance(node, Div):
        return f"{_wrap(node.left, _PREC_MUL)}/{_wrap(node.right, _PREC_MUL + 1)}"
    if isinstance(node, Neg):
        return f"-{_wrap(node.child, _PREC_NEG)}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, _PREC_ATOM)}^{node.exponent}"
    if isinstance(node, Dilate):
        return f"dilate({_unparse(node.child)},{node.t})"
    if isinstance(node, NegQ):
        return f"negq({_unparse(node.child)})"
    if isinstance(node, Dissect):
        return f"dissect({_unparse(node.child)},{node.t},{node.j})"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluator

# G, H and R as Pochhammer quotients: G = 1/(q,q^4;q^5)_inf,
# H = 1/(q^2,q^3;q^5)_inf and R = H/G.
_FUN_DEFINITIONS = {
    "G": parse("(poch(1,5)*poch(4,5))^-1"),
    "H": parse("(poch(2,5)*poch(3,5))^-1"),
    "R": parse("poch(1,5)*poch(4,5)/(poch(2,5)*poch(3,5))"),
}

# The package's one memo cache: node -> the longest series computed for it.
# A node's value at a lower order is a prefix of its value at a higher one,
# so shorter requests are served by truncation.
_eval_cache = {}
_eval_lock = threading.Lock()


def clear_cache():
    with _eval_lock:
        _eval_cache.clear()


def evaluate(node, order):
    """Evaluate to a :class:`Series` of exactly ``order`` correct coefficients.

    Requested orders propagate down the tree (a dissection child is
    evaluated at t times the requested order, a dilation child at the
    quotient), so the result's order is its true certified order.
    Every node's longest result is memoized and serves any lower order
    by truncation; series are immutable so the cache is safe to share.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return _evaluate(node, order, ())


def _evaluate(node, order, path):
    with _eval_lock:
        hit = _eval_cache.get(node)
    if hit is not None and hit.order >= order:
        return hit.truncate(order)
    value = _compute(node, order, path)
    if value.order != order:
        raise AssertionError(
            f"internal: expected order {order}, got {value.order} for {unparse(node)}"
        )
    with _eval_lock:
        hit = _eval_cache.get(node)
        if hit is None or hit.order < order:
            _eval_cache[node] = value
    return value


def _dilate_to(series, t, order):
    """Dilate and zero-pad to ``order``; safe because skipped exponents are 0."""
    dilated = series.dilate(t)
    if dilated.order >= order:
        return dilated.truncate(order)
    padded = list(dilated.coeffs) + [0] * (series.order * t - dilated.order)
    return Series(padded[:order])


def _fun_series(name, t, neg, order, path):
    base_order = (order + t - 1) // t
    if name == "phi":
        base = qfunctions.phi(base_order)
    elif name == "psi":
        base = qfunctions.psi(base_order)
    elif name == "chi":
        base = qfunctions.chi(base_order)
    else:
        base = _evaluate(_FUN_DEFINITIONS[name], base_order, path)
    if neg:
        base = base.negate_q()
    if t == 1:
        return base
    return _dilate_to(base, t, order)


def _compute(node, order, path):
    if isinstance(node, IntLit):
        return Series.constant(node.value, order)
    if isinstance(node, Q):
        return Series.monomial(1, 1, order)
    if isinstance(node, F):
        return qfunctions.euler_f(node.k, order)
    if isinstance(node, Poch):
        return qfunctions.pochhammer_inf(node.a, node.m, order)
    if isinstance(node, PochFin):
        return qfunctions.pochhammer_fin(node.a, node.m, node.n, order)
    if isinstance(node, Theta):
        spec = ThetaSpec(node.sign_a, node.r, node.sign_b, node.s)
        return qfunctions.theta_general(spec, order)
    if isinstance(node, Fun):
        return _fun_series(node.name, node.t, node.neg, order, path)
    if isinstance(node, Add):
        return _evaluate(node.left, order, path + ("left",)) + _evaluate(
            node.right, order, path + ("right",)
        )
    if isinstance(node, Sub):
        return _evaluate(node.left, order, path + ("left",)) - _evaluate(
            node.right, order, path + ("right",)
        )
    if isinstance(node, Mul):
        return _evaluate(node.left, order, path + ("left",)) * _evaluate(
            node.right, order, path + ("right",)
        )
    if isinstance(node, Div):
        den = _evaluate(node.right, order, path + ("denominator",))
        try:
            inv = den.invert()
        except NonUnitConstantTerm as exc:
            where = "/".join(path + ("denominator",))
            raise EvaluationError(
                f"cannot divide: {exc} in {unparse(node.right)} (at {where})"
            ) from exc
        return _evaluate(node.left, order, path + ("numerator",)) * inv
    if isinstance(node, Pow):
        base = _evaluate(node.base, order, path + ("base",))
        try:
            return base**node.exponent
        except NonUnitConstantTerm as exc:
            where = "/".join(path + ("base",))
            raise EvaluationError(
                f"cannot raise to {node.exponent}: {exc} in {unparse(node.base)}"
                f" (at {where})"
            ) from exc
    if isinstance(node, Neg):
        return -_evaluate(node.child, order, path + ("child",))
    if isinstance(node, Dilate):
        if node.t < 1:
            raise EvaluationError(f"dilation factor must be >= 1 in {unparse(node)}")
        child_order = (order + node.t - 1) // node.t
        child = _evaluate(node.child, child_order, path + ("child",))
        return _dilate_to(child, node.t, order)
    if isinstance(node, NegQ):
        return _evaluate(node.child, order, path + ("child",)).negate_q()
    if isinstance(node, Dissect):
        if node.t < 1 or not 0 <= node.j < node.t:
            raise EvaluationError(
                f"dissection needs t >= 1 and 0 <= j < t in {unparse(node)}"
            )
        child = _evaluate(node.child, node.t * order, path + ("child",))
        return child.dissect(node.t, node.j).truncate(order)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Identity records and manifests


@dataclass(frozen=True)
class IdentityRecord:
    """Named identity: lhs == rhs exactly, or lhs == rhs (mod modulus)."""

    name: str
    lhs: object
    rhs: object
    modulus: int | None = None
    anchor: str = ""
    certified_order: int = 0

    @property
    def is_congruence(self):
        return self.modulus is not None


_RECORD_RE = re.compile(
    r"^\[(?P<name>[^\]]+)\]\s*(?:\(mod\s+(?P<mod>\d+)\)\s*)?:\s*(?P<body>.*)$"
)


def parse_record(line, line_number=None):
    """Parse one manifest line into an :class:`IdentityRecord`."""
    m = _RECORD_RE.match(line.strip())
    if m is None:
        raise ManifestError(
            "expected '[name] (mod m)? : lhs == rhs @ anchor'", line_number
        )
    name = m.group("name").strip()
    modulus = int(m.group("mod")) if m.group("mod") else None
    if modulus is not None and modulus < 2:
        raise ManifestError("modulus must be >= 2", line_number, name)
    body = m.group("body")
    body, _, anchor = body.partition("@")
    anchor = anchor.strip()
    sides = body.split("==")
    if len(sides) != 2:
        raise ManifestError("expected exactly one '==' separator", line_number, name)
    try:
        lhs = parse(sides[0])
        rhs = parse(sides[1])
    except ParseError as exc:
        raise ManifestError(str(exc), line_number, name) from exc
    return IdentityRecord(name=name, lhs=lhs, rhs=rhs, modulus=modulus, anchor=anchor)


def load_manifest(path):
    """Read a manifest file; blank lines and '#' comments are skipped."""
    records = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            record = parse_record(line, line_number)
            if record.name in seen:
                raise ManifestError("duplicate record name", line_number, record.name)
            seen.add(record.name)
            records.append(record)
    return records
