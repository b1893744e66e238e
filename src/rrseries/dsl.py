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

import operator
import re
import threading
from dataclasses import dataclass

from . import qfunctions
from .errors import (BudgetExceeded, EvaluationError, InvalidModulus, ManifestError,
                     NonUnitConstantTerm, ParseError, UnknownSymbol)
from .qfunctions import ThetaSpec
from .series import Series, require_unit

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

# Deepest tree the parser builds.  Evaluation, unparsing, hashing and
# comparison recurse once per tree level, and a chain such as q+q+...+q
# adds one level per operator without any nesting in the text.
MAX_TREE_DEPTH = 200

# Longest integer literal the parser accepts: CPython's default limit on
# int/str conversion, so a literal never fails with a bare ValueError.
MAX_LITERAL_DIGITS = 4300

# Evaluation budget, checked over the whole tree before anything is built.
# MAX_ORDER bounds the order any node is evaluated at (a dissection child
# needs t times its parent's order); it sits far above the orders the suite
# and the paper checks use (at most 20000) and keeps a series of 10^9 terms
# from being allocated.  MAX_EXPONENT bounds |k| in e^k, the number of
# squarings one power makes.
MAX_ORDER = 1_000_000
MAX_EXPONENT = 1_000_000

# ---------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|([()+\-*/^,])")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text):
    """Tokens with their offsets; line and column are found only for an error."""
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", *_line_col(text, pos))
        if m.group(1):
            kind = "int"
        elif m.group(2):
            kind = "name"
        else:
            kind = m.group(3)
        tokens.append(_Token(kind, m.group(0), pos))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


def _line_col(text, pos):
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    return line, pos - last_nl


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0
        # id(node) -> (node, levels of its tree) for every inner node built
        # so far; a leaf has one level.  Holding the node keeps its id unique.
        # Every node has a token of its own, so input of at most
        # MAX_TREE_DEPTH tokens cannot build a deeper tree and skips the count.
        self.levels = {} if len(self.tokens) > MAX_TREE_DEPTH else None

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
            self.fail(f"expected {kind!r}, found {shown!r}", tok)
        return self.advance()

    def fail(self, message, tok=None):
        """Raise :class:`ParseError` at ``tok`` (default: the current token)."""
        tok = tok or self.current
        raise ParseError(message, *_line_col(self.text, tok.pos))

    def int_value(self, tok):
        """The value of an integer literal, or of the digits after ``f``."""
        digits = tok.text.lstrip("f")
        if len(digits) > MAX_LITERAL_DIGITS:
            self.fail(f"integer literal longer than {MAX_LITERAL_DIGITS} digits", tok)
        return int(digits)

    def build(self, tok, node, *children):
        """Return ``node``, built from ``children``; refuse it past MAX_TREE_DEPTH levels."""
        levels = self.levels
        if levels is None:
            return node
        height = 1 + max([levels[id(c)][1] if id(c) in levels else 1 for c in children])
        if height > MAX_TREE_DEPTH:
            self.fail(f"expression tree deeper than {MAX_TREE_DEPTH} levels", tok)
        levels[id(node)] = (node, height)
        return node

    # -- grammar ----------------------------------------------------------

    def parse_expr(self):
        node = self.parse_term()
        while self.current.kind in ("+", "-"):
            tok = self.advance()
            right = self.parse_term()
            node = self.build(tok, (Add if tok.kind == "+" else Sub)(node, right), node, right)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.current.kind in ("*", "/"):
            tok = self.advance()
            right = self.parse_unary()
            node = self.build(tok, (Mul if tok.kind == "*" else Div)(node, right), node, right)
        return node

    def parse_unary(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"expression nested more than {MAX_DEPTH} levels deep")
        if self.current.kind == "-":
            tok = self.advance()
            child = self.parse_unary()
            node = self.build(tok, Neg(child), child)
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self):
        base = self.parse_atom()
        if self.current.kind == "^":
            caret = self.advance()
            negative = False
            if self.current.kind == "-":
                self.advance()
                negative = True
            k = self.int_value(self.expect("int"))
            return self.build(caret, Pow(base, -k if negative else k), base)
        return base

    def parse_atom(self):
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return IntLit(self.int_value(tok))
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
            k = self.int_value(tok)
            if k < 1:
                self.fail(f"f{k} is not defined", tok)
            return F(k)
        if name == "poch":
            a, m = self.int_args(2)
            if a < 1 or m < 1:
                self.fail("poch(a,m) needs a >= 1 and m >= 1", tok)
            return Poch(a, m)
        if name == "pochfin":
            a, m, n = self.int_args(3)
            if a < 1 or m < 1 or n < 0:
                self.fail("pochfin(a,m,n) needs a >= 1, m >= 1 and n >= 0", tok)
            return PochFin(a, m, n)
        if name == "theta":
            sa, r, sb, s = self.int_args(4)
            if sa not in (1, -1) or sb not in (1, -1):
                self.fail("theta signs must be 1 or -1", tok)
            if r < 0 or s < 0:
                self.fail("theta exponents must be >= 0", tok)
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
            return self.build(tok, Dilate(child, t), child)
        if name == "dissect":
            self.expect("(")
            child = self.parse_expr()
            self.expect(",")
            t = self.signed_int()
            self.expect(",")
            j = self.signed_int()
            self.expect(")")
            return self.build(tok, Dissect(child, t, j), child)
        if name == "negq":
            self.expect("(")
            child = self.parse_expr()
            self.expect(")")
            return self.build(tok, NegQ(child), child)
        raise UnknownSymbol(f"unknown symbol {name!r}", *_line_col(self.text, tok.pos))

    def signed_int(self):
        negative = False
        if self.current.kind in ("-", "+"):
            negative = self.advance().kind == "-"
        value = self.int_value(self.expect("int"))
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
            self.fail(f"function argument must be q, q^t, -q, or -q^t, found {tok.text!r}", tok)
        t = 1
        if self.current.kind == "^":
            self.advance()
            t = self.int_value(self.expect("int"))
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

# The package's one memo cache.  An exact value is keyed by its node, a
# value mod m (balanced residues) by (node, m); each key keeps the longest
# series computed for it.  A node's value at a lower order is a prefix of
# its value at a higher one, so shorter requests are served by truncation,
# and a long enough exact value serves every modulus by reduction.
_eval_cache = {}
_eval_lock = threading.Lock()

# Atoms are built (and cached) exactly and then reduced, so every modulus
# shares one exact build.
_ATOMS = (IntLit, Q, F, Poch, PochFin, Theta)

_RING_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def clear_cache():
    with _eval_lock:
        _eval_cache.clear()


def evaluate(node, order, modulus=None):
    """Evaluate to a :class:`Series` of exactly ``order`` correct coefficients.

    Requested orders propagate down the tree (a dissection child is
    evaluated at t times the requested order, a dilation child at the
    quotient), so the result's order is its true certified order.
    Every node's longest result is memoized and serves any lower order
    by truncation; series are immutable so the cache is safe to share.

    With ``modulus=m`` the result is the value's balanced residues mod m,
    computed in Z/mZ: every sum, product, power and inversion is reduced
    as it is formed.  A division or negative power still needs the exact
    constant term of its denominator to be +1 or -1.  A tree that needs an
    order above MAX_ORDER or an exponent above MAX_EXPONENT raises
    :class:`BudgetExceeded` before anything is built.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if modulus is not None and (not isinstance(modulus, int) or modulus < 2):
        raise InvalidModulus(f"modulus {modulus!r} must be an int >= 2")
    return _evaluate(node, order, modulus, ())


def _evaluate(node, order, m, path):
    key = node if m is None else (node, m)
    with _eval_lock:
        exact = _eval_cache.get(node)
        hit = exact if m is None else _eval_cache.get(key)
    if exact is not None and exact.order >= order:
        exact = exact.truncate(order)
        return exact if m is None else exact.residues(m)
    if hit is not None and hit.order >= order:
        return hit.truncate(order)
    if not path:
        _check_budget(node, order)
    value = _compute(node, order, m, path)
    if value.order != order:
        raise AssertionError(
            f"internal: expected order {order}, got {value.order} for {unparse(node)}"
        )
    with _eval_lock:
        hit = _eval_cache.get(key)
        if hit is None or hit.order < order:
            _eval_cache[key] = value
    return value


def _check_budget(node, order):
    """Raise BudgetExceeded if evaluating ``node`` to ``order`` would pass the budget."""
    if order > MAX_ORDER:
        raise BudgetExceeded(
            f"{unparse(node)} needs order {order}, above the budget of {MAX_ORDER}"
        )
    if isinstance(node, Pow):
        if abs(node.exponent) > MAX_EXPONENT:
            raise BudgetExceeded(
                f"exponent {node.exponent} in {unparse(node)} is above the budget of {MAX_EXPONENT}"
            )
        _check_budget(node.base, order)
    elif isinstance(node, Dissect):
        _check_budget(node.child, max(node.t, 1) * order)
    elif isinstance(node, Dilate):
        _check_budget(node.child, -(-order // max(node.t, 1)))
    elif isinstance(node, (Add, Sub, Mul, Div)):
        _check_budget(node.left, order)
        _check_budget(node.right, order)
    elif isinstance(node, (Neg, NegQ)):
        _check_budget(node.child, order)


def _dilate_to(series, t, order):
    """Dilate and zero-pad to ``order``; safe because skipped exponents are 0."""
    dilated = series.dilate(t)
    if dilated.order >= order:
        return dilated.truncate(order)
    return Series(list(dilated.coeffs) + [0] * (order - dilated.order))


def _fun_series(name, t, neg, order, m, path):
    base_order = (order + t - 1) // t
    if name in _FUN_DEFINITIONS:
        base = _evaluate(_FUN_DEFINITIONS[name], base_order, m, path)
    else:
        base = getattr(qfunctions, name)(base_order).residues(m)
    if neg:
        base = base.negate_q().residues(m)
    if t == 1:
        return base
    return _dilate_to(base, t, order)


def _inverse(node, value, m, path, verb):
    """``value`` inverted (mod ``m``), where ``value`` is ``node`` evaluated.

    A residue can be a unit where the exact value is not (3 = -1 mod 4),
    so with a modulus the exact constant term, from an order-1 evaluation,
    decides.
    """
    try:
        if m is not None:
            require_unit(_evaluate(node, 1, None, path)[0])
        return value.invert(m)
    except NonUnitConstantTerm as exc:
        where = "/".join(path)
        raise EvaluationError(f"cannot {verb}: {exc} in {unparse(node)} (at {where})") from exc


def _compute(node, order, m, path):
    if m is not None and isinstance(node, _ATOMS):
        return _evaluate(node, order, None, path).residues(m)
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
        return _fun_series(node.name, node.t, node.neg, order, m, path)
    if type(node) in _RING_OPS:
        left = _evaluate(node.left, order, m, path + ("left",))
        right = _evaluate(node.right, order, m, path + ("right",))
        return _RING_OPS[type(node)](left, right).residues(m)
    if isinstance(node, Div):
        where = path + ("denominator",)
        inv = _inverse(node.right, _evaluate(node.right, order, m, where), m, where, "divide")
        return (_evaluate(node.left, order, m, path + ("numerator",)) * inv).residues(m)
    if isinstance(node, Pow):
        where = path + ("base",)
        base = _evaluate(node.base, order, m, where)
        if node.exponent < 0:
            verb = f"raise to {node.exponent}"
            return pow(_inverse(node.base, base, m, where, verb), -node.exponent, m)
        return pow(base, node.exponent, m)
    if isinstance(node, Neg):
        return (-_evaluate(node.child, order, m, path + ("child",))).residues(m)
    if isinstance(node, Dilate):
        if node.t < 1:
            raise EvaluationError(f"dilation factor must be >= 1 in {unparse(node)}")
        child_order = (order + node.t - 1) // node.t
        child = _evaluate(node.child, child_order, m, path + ("child",))
        return _dilate_to(child, node.t, order)
    if isinstance(node, NegQ):
        return _evaluate(node.child, order, m, path + ("child",)).negate_q().residues(m)
    if isinstance(node, Dissect):
        if node.t < 1 or not 0 <= node.j < node.t:
            raise EvaluationError(
                f"dissection needs t >= 1 and 0 <= j < t in {unparse(node)}"
            )
        child = _evaluate(node.child, node.t * order, m, path + ("child",))
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
    if len(m.group("mod") or "") > MAX_LITERAL_DIGITS:
        raise ManifestError(f"modulus longer than {MAX_LITERAL_DIGITS} digits", line_number, name)
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
