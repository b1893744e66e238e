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

Evaluation lowers every tree to one normal form, a :class:`Product`

    c * q^k * prod f(+-q^r, +-q^s)^e * prod x^e,

whose theta bases (r, s >= 1) are sparse series with constant term 1,
and whose dense factors x are the parts that are no theta quotient: a
sum, a difference, a dissection, a finite product, or a poch(a,m)
without its partner poch(m-a,m), each under the ``dilate`` and
``negq`` around it.  The theta quotient is built by the sparse kernels
of ``_backend``: one base raised by Miller's recurrence, every other
unit of exponent one sparse product or quotient.  Each dense factor is
built from its children and raised to its exponent.  Every value is
exact; a congruence mod m is checked on the exact value, reduced at the
end.
"""

import functools
import operator
import re
import threading

from . import _backend, qfunctions
from ._record import Record
from .errors import (BudgetExceeded, EvaluationError, InvalidModulus, InvalidTheta,
                     ManifestError, NonUnitConstantTerm, ParseError, UnknownSymbol)
from .qfunctions import ThetaSpec
from .series import Series, require_modulus, require_unit

# ---------------------------------------------------------------------------
# AST
#
# A node whose parameters have a range checks them when it is built, so a
# tree from the Python API is refused exactly where the parser, which
# builds every node through ``_Parser.make``, reports a ParseError.


class IntLit(Record):
    __slots__ = ()
    _fields = ("value",)

    def __new__(cls, value):
        if type(value) is not int or value < 0:
            raise ValueError(f"integer literal {value!r} is not an int >= 0")
        return Record.__new__(cls, value)


class Q(Record):
    __slots__ = ()


class F(Record):
    __slots__ = ()
    _fields = ("k",)

    def __new__(cls, k):
        if k < 1:
            raise ValueError(f"f{k} is not defined")
        return Record.__new__(cls, k)


class Poch(Record):
    __slots__ = ()
    _fields = ("a", "m")

    def __new__(cls, a, m):
        if a < 1 or m < 1:
            raise ValueError("poch(a,m) needs a >= 1 and m >= 1")
        return Record.__new__(cls, a, m)


class PochFin(Record):
    __slots__ = ()
    _fields = ("a", "m", "n")

    def __new__(cls, a, m, n):
        if a < 1 or m < 1 or n < 0:
            raise ValueError("pochfin(a,m,n) needs a >= 1, m >= 1 and n >= 0")
        return Record.__new__(cls, a, m, n)


# The atom theta(sa,r,sb,s) is the spec of f(sa*q^r, sb*q^s).
Theta = ThetaSpec


FUN_NAMES = ("phi", "psi", "chi", "G", "H", "R")


class Fun(Record):
    """Named function atom phi/psi/chi/G/H/R applied to (-)q^t."""

    __slots__ = ()
    _fields = ("name", "neg", "t")

    def __new__(cls, name, neg, t):
        if name not in FUN_NAMES:
            raise ValueError(f"unknown function {name!r}")
        if type(neg) is not bool:
            raise ValueError(f"sign flag {neg!r} is not a bool")
        if t < 1:
            raise ValueError("dilation exponent must be >= 1")
        return Record.__new__(cls, name, neg, t)


class Add(Record):
    __slots__ = ()
    _fields = ("left", "right")


class Sub(Record):
    __slots__ = ()
    _fields = ("left", "right")


class Mul(Record):
    __slots__ = ()
    _fields = ("left", "right")


class Div(Record):
    __slots__ = ()
    _fields = ("left", "right")


class Pow(Record):
    __slots__ = ()
    _fields = ("base", "exponent")

    def __new__(cls, base, exponent):
        if type(exponent) is not int:
            raise ValueError(f"exponent {exponent!r} is not an int")
        return Record.__new__(cls, base, exponent)


class Neg(Record):
    __slots__ = ()
    _fields = ("child",)


class Dilate(Record):
    __slots__ = ()
    _fields = ("child", "t")

    def __new__(cls, child, t):
        if t < 1:
            raise ValueError("dilation factor must be >= 1")
        return Record.__new__(cls, child, t)


class NegQ(Record):
    __slots__ = ()
    _fields = ("child",)


class Dissect(Record):
    __slots__ = ()
    _fields = ("child", "t", "j")

    def __new__(cls, child, t, j):
        if t < 1 or not 0 <= j < t:
            raise ValueError("dissection needs t >= 1 and 0 <= j < t")
        return Record.__new__(cls, child, t, j)


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

# The binary operators, token -> (record, precedence, printed text), read by
# the parser and the unparser alike.
_OPERATORS = {
    "+": (Add, _PREC_ADD, " + "),
    "-": (Sub, _PREC_ADD, " - "),
    "*": (Mul, _PREC_MUL, "*"),
    "/": (Div, _PREC_MUL, "/"),
}

# The call forms name(arg,...), name -> (record, argument kinds in field
# order): "e" an expression, "i" a signed integer.  A record iterates its
# fields, so the unparser prints each of them back as name(field,...).
_CALLS = {
    "poch": (Poch, "ii"),
    "pochfin": (PochFin, "iii"),
    "theta": (Theta, "iiii"),
    "dilate": (Dilate, "ei"),
    "dissect": (Dissect, "eii"),
    "negq": (NegQ, "e"),
}

# Deepest nesting of parentheses, function arguments and unary minus the
# parser accepts; each level costs up to six Python frames, so deeper input
# would end in RecursionError instead of a ParseError.
MAX_DEPTH = 100

# Deepest tree the parser builds.  Evaluation, unparsing, hashing and
# comparison recurse once per tree level, and a chain such as q+q+...+q
# adds one level per operator without any nesting in the text.
MAX_TREE_DEPTH = 200

# Distinct texts whose trees ``parse`` keeps, least recently used out first.
# A long-lived caller sends the same few texts again and again; a repeated
# text costs one dict lookup and returns the tree object that already keys
# its series in the evaluator's cache.
PARSE_CACHE_SIZE = 1024

# Longest integer literal the parser accepts: CPython's default limit on
# int/str conversion, so a literal never fails with a bare ValueError.
MAX_LITERAL_DIGITS = 4300

# Evaluation budget, checked over the whole tree before anything is built.
# MAX_ORDER bounds the order any node is evaluated at (a dissection child
# needs t times its parent's order); it sits far above the orders the suite
# and the paper checks use (at most 20000) and keeps a series of 10^9 terms
# from being allocated.  MAX_EXPONENT bounds |k| in e^k, and the product of
# the exponents of nested powers, which multiply coefficient sizes.
MAX_ORDER = 1_000_000
MAX_EXPONENT = 1_000_000

# ---------------------------------------------------------------------------
# Lexer / parser

# Whitespace, then one token: an integer, a name, a punctuation mark, or
# (last group) any other character, which is an error.
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([()+\-*/^,])|(\S))")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text):
    """Tokens with their offsets; line and column are found only for an error."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        token, pos = m.group(group), m.start(group)
        if group == 4:
            raise ParseError(f"unexpected character {token!r}", *_line_col(text, pos))
        kind = "int" if group == 1 else "name" if group == 2 else token
        tokens.append(_Token(kind, token, pos))
    tokens.append(_Token("end", "", len(text)))
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

    def parse_expr(self, prec=_PREC_ADD):
        """An expr at ``prec`` _PREC_ADD, a term at _PREC_MUL: operands of the
        next precedence up, joined left to right by the operators of ``prec``."""
        node = self.parse_unary() if prec == _PREC_MUL else self.parse_expr(_PREC_MUL)
        while _OPERATORS.get(self.current.kind, (None, None))[1] == prec:
            tok = self.advance()
            right = self.parse_unary() if prec == _PREC_MUL else self.parse_expr(_PREC_MUL)
            node = self.build(tok, _OPERATORS[tok.kind][0](node, right), node, right)
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
            return self.make(tok, F, self.int_value(tok))
        if name in FUN_NAMES:
            return self.make(tok, Fun, name, *self.parse_q_arg())
        if name in _CALLS:
            record, kinds = _CALLS[name]
            self.expect("(")
            args = []
            for i, kind in enumerate(kinds):
                if i:
                    self.expect(",")
                args.append(self.parse_expr() if kind == "e" else self.signed_int())
            self.expect(")")
            node = self.make(tok, record, *args)
            return self.build(tok, node, args[0]) if kinds[0] == "e" else node
        raise UnknownSymbol(f"unknown symbol {name!r}", *_line_col(self.text, tok.pos))

    def make(self, tok, cls, *args):
        """``cls(*args)``; a parameter it refuses is a :class:`ParseError` at ``tok``."""
        try:
            return cls(*args)
        except (ValueError, InvalidTheta) as exc:
            self.fail(str(exc), tok)

    def signed_int(self):
        negative = False
        if self.current.kind in ("-", "+"):
            negative = self.advance().kind == "-"
        value = self.int_value(self.expect("int"))
        return -value if negative else value

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
        self.expect(")")
        return neg, t


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(text):
    """Parse an expression; raises :class:`ParseError` with line/column.

    Memoized by text (at most PARSE_CACHE_SIZE texts): a repeated text
    returns the same tree, which is safe to share because every node is
    an immutable tuple (a :class:`~rrseries._record.Record`).  An error
    is never memoized; a bad text raises every time.
    """
    parser = _Parser(text)
    node = parser.parse_expr()
    parser.expect("end")
    return node


# ---------------------------------------------------------------------------
# Unparser

# The two syntax tables read backwards: record -> (precedence, printed text)
# of an operator, record -> name of a call form, and record -> precedence.
_PRINTED = {record: (prec, text) for record, prec, text in _OPERATORS.values()}
_CALL_NAMES = {record: name for name, (record, _) in _CALLS.items()}
_PRECEDENCE = {Neg: _PREC_NEG, Pow: _PREC_POW, **{r: p for r, (p, _) in _PRINTED.items()}}


def _prec(node):
    return _PRECEDENCE.get(type(node), _PREC_ATOM)


def unparse(node):
    """Canonical text form; ``parse(unparse(e)) == e`` for every tree."""
    return _unparse(node)


def _wrap(child, minimum):
    text = _unparse(child)
    if _prec(child) < minimum:
        return f"({text})"
    return text


def _unparse(node):
    kind = type(node)
    if kind in _PRINTED:
        prec, text = _PRINTED[kind]
        return f"{_wrap(node.left, prec)}{text}{_wrap(node.right, prec + 1)}"
    if kind in _CALL_NAMES:
        args = ",".join(_unparse(x) if isinstance(x, Record) else str(x) for x in node)
        return f"{_CALL_NAMES[kind]}({args})"
    if kind is IntLit:
        return str(node.value)
    if kind is Q:
        return "q"
    if kind is F:
        return f"f{node.k}"
    if kind is Fun:
        arg = "-q" if node.neg else "q"
        if node.t != 1:
            arg += f"^{node.t}"
        return f"{node.name}({arg})"
    if kind is Neg:
        return f"-{_wrap(node.child, _PREC_NEG)}"
    if kind is Pow:
        return f"{_wrap(node.base, _PREC_ATOM)}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluator

# phi, psi, chi, G, H and R at q as theta quotients, with
# f_k = f(-q^k, -q^(2k)) = (q^k; q^k)_inf: by the Jacobi triple product
# G = 1/(q,q^4;q^5)_inf = f_5/f(-q,-q^4), H = 1/(q^2,q^3;q^5)_inf =
# f_5/f(-q^2,-q^3) and R = H/G, and chi(q) = (-q;q^2)_inf = f_2^2/(f_1 f_4).
_FUN_DEFINITIONS = {
    "phi": parse("theta(1,1,1,1)"),
    "psi": parse("theta(1,1,1,3)"),
    "chi": parse("f2^2/(f1*f4)"),
    "G": parse("f5/theta(-1,1,-1,4)"),
    "H": parse("f5/theta(-1,2,-1,3)"),
    "R": parse("theta(-1,1,-1,4)/theta(-1,2,-1,3)"),
}

# The package's one memo cache: each node keeps the longest series computed
# for it.  A node's value at a lower order is a prefix of its value at a
# higher one, so shorter requests are served by truncation.  The value of a
# product is also kept under its normal form (a :class:`Product`), so the
# trees of one product share one entry.
_eval_cache = {}
_eval_lock = threading.Lock()

_RING_OPS = {Add: operator.add, Sub: operator.sub}

# The nodes that enter every Product as dense factors of their own; a poch
# does too while it has no partner, and so do ``dilate`` and ``negq`` of a
# dense factor.
_DENSE_LEAVES = (Add, Sub, Dissect, PochFin)

# A base of an exact product other than the one raised by Miller's
# recurrence is folded in by one sparse step per unit of its exponent up to
# this many; beyond, it gets a Miller power of its own and one dense
# product, so the work stays bounded at any exponent.  On 2 vCPUs with
# CPython 3.11, folding f(-q^2,-q^3)^e into f(-q,-q^4)^-7 by sparse steps
# against a Miller power and a dense product: at order 500, 5.0 against
# 4.3 ms for e = 8 and 7.8 against 4.8 ms for e = 12; at order 3000, where
# the dense product multiplies 450-bit coefficients, 106 against 282 ms
# for e = 8 and 176 against 346 ms for e = 12.
MAX_SPARSE_STEPS = 16


def clear_cache():
    """Empty the evaluator's cache and the parse memo."""
    with _eval_lock:
        _eval_cache.clear()
    parse.cache_clear()


def evaluate(node, order):
    """Evaluate to a :class:`Series` of exactly ``order`` correct coefficients.

    Requested orders propagate down the tree (a dissection child is
    evaluated at t times the requested order, a dilation child at the
    quotient), so the result's order is its true certified order.
    Every node's longest result is memoized and serves any lower order
    by truncation; series are immutable so the cache is safe to share.

    Every node is evaluated through its normal form :func:`lower`,
    c*q^k*prod theta^e*prod dense^e.  The thetas are sparse series, so
    ``f3`` and ``theta(-1,3,-1,6)`` share one cache entry; each dense
    factor (a sum, a dissection, a finite product, a poch without its
    partner) is built from its children and raised to its exponent.

    A division or negative power needs the constant term of its
    denominator to be +1 or -1.  A parameter out of range never gets
    here: every node checks its fields when it is built.  A tree that
    needs an order above MAX_ORDER or an exponent above MAX_EXPONENT
    raises :class:`BudgetExceeded` before anything is built, and so does
    one whose powers of one dense factor multiply past the budget once
    lowering has combined them, or whose integers do as lowering
    multiplies them in.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return _evaluate(node, order, None)


def _lookup(key, order):
    """The value cached for ``key`` (a node or a Product) to ``order``, or None."""
    with _eval_lock:
        hit = _eval_cache.get(key)
    if hit is not None and hit.order >= order:
        return hit.truncate(order)
    return None


def _evaluate(key, order, path=()):
    """``key``, a node found at ``path`` or a Product, to ``order``: the
    cached value, or one built and cached unless a longer one is there.

    ``path`` is None for a call of :func:`evaluate`, whose tree is checked
    against the budget once, on a miss and before anything is built.
    """
    value = _lookup(key, order)
    if value is not None:
        return value
    if path is None:
        check_budget(key, order)
        path = ()
    value = _product_series(key, order) if type(key) is Product else _compute(key, order, path)
    if value.order != order:
        raise AssertionError(f"internal: expected order {order}, got {value.order} for {key!r}")
    with _eval_lock:
        hit = _eval_cache.get(key)
        if hit is None or hit.order < order:
            _eval_cache[key] = value
    return value


def check_budget(node, order, power=1):
    """Raise BudgetExceeded if evaluating ``node`` to ``order`` would pass the budget.

    :func:`evaluate` runs it first; it builds nothing, so a caller can run
    it on everything it will evaluate before it evaluates any.  ``power``
    is the product of the |exponents| of the powers around ``node`` (a
    zero counting as 1, since the base is still built), so (e^j)^k counts
    as the exponent j*k it amounts to.  A power's coefficients grow by
    about that exponent times the bits of its base's integers, so the
    exponent is counted times the bit length of the largest integer
    literal in the base: (2+q)^1000000 is refused, (1+q)^1000000 is not.

    Returns that bit length for ``node`` (1 when it holds no literal).
    """
    if order > MAX_ORDER:
        raise BudgetExceeded(
            f"{unparse(node)} needs order {order}, above the budget of {MAX_ORDER}"
        )
    if isinstance(node, IntLit):
        return max(node.value.bit_length(), 1)
    if isinstance(node, Pow):
        outer, power = power, power * max(abs(node.exponent), 1)
        bits = check_budget(node.base, order, power)
        if power * bits > MAX_EXPONENT:
            around = f", raised to {outer} by the powers around it" if outer > 1 else ""
            width = f", times the {bits} bits of its largest integer" if bits > 1 else ""
            raise BudgetExceeded(
                f"exponent {node.exponent} in {unparse(node)}{around}{width}"
                f"{',' if around or width else ''} is above the budget of {MAX_EXPONENT}"
            )
        return bits
    if isinstance(node, Dissect):
        return check_budget(node.child, node.t * order, power)
    if isinstance(node, Dilate):
        return check_budget(node.child, -(-order // node.t), power)
    if isinstance(node, (Add, Sub, Mul, Div)):
        return max(check_budget(node.left, order, power), check_budget(node.right, order, power))
    if isinstance(node, (Neg, NegQ)):
        return check_budget(node.child, order, power)
    return 1


def needed_order(node, order):
    """The largest order at which evaluating ``node`` to ``order`` builds a
    series: the orders :func:`check_budget` checks, t times the order under
    ``dissect(e, t, j)`` and ceil(order/t) under ``dilate(e, t)``."""
    if isinstance(node, Dissect):
        return needed_order(node.child, node.t * order)
    if isinstance(node, Dilate):
        return max(order, needed_order(node.child, -(-order // node.t)))
    if isinstance(node, Pow):
        return needed_order(node.base, order)
    if isinstance(node, (Add, Sub, Mul, Div)):
        return max(needed_order(node.left, order), needed_order(node.right, order))
    if isinstance(node, (Neg, NegQ)):
        return needed_order(node.child, order)
    return order


def _compute(node, order, path):
    if not isinstance(node, _DENSE_LEAVES):
        product = _lower(node, path)
        if product != Product(1, 0, (), ((node, 1),)):
            return _evaluate(product, order)
    # the node is its own single dense factor
    kind = type(node)
    if kind is Poch:
        return qfunctions.pochhammer_inf(node.a, node.m, order)
    if kind is PochFin:
        return qfunctions.pochhammer_fin(node.a, node.m, node.n, order)
    if kind in _RING_OPS:
        left = _evaluate(node.left, order, path + ("left",))
        right = _evaluate(node.right, order, path + ("right",))
        return _RING_OPS[kind](left, right)
    if kind in (Dilate, NegQ):
        # a run of wrappers around one dense node: the innermost node is
        # evaluated once, through the cache, and the wrappers are applied
        # going outward, so no wrapper lowers its subtree again
        wrappers = []
        while type(node) in (Dilate, NegQ):
            wrappers.append((node, order))
            order = -(-order // node.t) if type(node) is Dilate else order
            node, path = node.child, path + ("child",)
        value = _evaluate(node, order, path)
        for node, order in reversed(wrappers):
            # ceil(order/t) terms dilate to (ceil(order/t) - 1)*t + 1 <= order,
            # padded with the zeros the dilation skips
            value = value.negate_q() if type(node) is NegQ else Series(
                (value.dilate(node.t).coeffs + (0,) * order)[:order])
        return value
    # a dissection
    child = _evaluate(node.child, node.t * order, path + ("child",))
    return child.dissect(node.t, node.j).truncate(order)


# ---------------------------------------------------------------------------
# Theta-quotient normal form


class Product(Record):
    """c * q^k * prod theta^e * prod dense^e: the normal form of a tree.

    ``thetas`` holds (ThetaSpec, e) pairs in the order
    :func:`_theta_quotient` builds them (:func:`_build_order`), each spec
    canonical with both exponents >= 1, so each base is a sparse series
    with constant term 1.  ``dense`` holds (node, e) pairs, sorted by the
    node's text, for the factors that are no theta: a poch(a,m) that
    found no partner, and each largest sum, difference, dissection or
    finite product, under the ``dilate`` and ``negq`` around it.  Every e is nonzero, k is >= 0,
    and c = 0 only in the zero product, which has no factors.  A record
    of its own type, so it never equals a node key of the cache.
    """

    __slots__ = ()
    _fields = ("c", "k", "thetas", "dense")


def _euler(k):
    """f_k = (q^k; q^k)_inf = f(-q^k, -q^(2k)), by Euler's pentagonal theorem."""
    return ThetaSpec(-1, k, -1, 2 * k)


def lower(node):
    """The :class:`Product` equal to the tree ``node``: Garvan's product
    normal form, with every factor that is no product kept whole.

    The rules: ``f_k`` is f(-q^k, -q^(2k)); a pair poch(a,m)*poch(m-a,m)
    is f(-q^a, -q^(m-a))/f_m, poch(m,m) is f_m and poch(a,2a) is
    f_a/f_(2a); a theta with a zero exponent is f(1, b) = 2 f(b, b^3)
    or f(-1, b) = 0; phi, psi, chi, G, H and R are the theta quotients
    of ``_FUN_DEFINITIONS``; a dilation scales every exponent, ``negq``
    flips signs by the parity of the exponents, ``q`` adds to k and an
    integer multiplies c.  A sum, a difference, a dissection, a finite
    product and a poch without its partner are dense factors: a
    dilation takes poch(a,m) to poch(a*t,m*t) and any other dense
    factor x to dilate(x,t), and ``negq`` takes x to negq(x).

    Raises the evaluator's :class:`EvaluationError` for a division or
    negative power whose denominator has a constant term other than +1
    or -1, as f(+-1, b) has: the constant term of a dense factor is read
    from its value to order 1, and every dense factor is evaluated to
    order 1 where it stands in the tree, within the budget of
    :func:`check_budget`, so an error inside it names its own place.
    """
    check_budget(node, 1)
    return _lower(node, ())


def _lower(node, path):
    c, k, factors = _lower_parts(node, path)
    if c == 0:
        return Product(0, 0, (), ())
    # the factors are combined now: the budget counts each dense factor as
    # one power, however many powers of the tree it sums
    thetas, dense = {}, []
    for factor, e in _pair(factors).items():
        if type(factor) is ThetaSpec:
            spec = factor.canonical()
            thetas[spec] = thetas.get(spec, 0) + e
        else:
            check_budget(Pow(factor, e), 1)
            dense.append((factor, e))
    thetas = sorted(((spec, e) for spec, e in thetas.items() if e), key=_build_order)
    dense.sort(key=lambda item: unparse(item[0]))
    return Product(c, k, tuple(thetas), tuple(dense))


def _build_order(item):
    """The sort key of the (ThetaSpec, e) pairs in ``Product.thetas``:
    largest |e| first; among equal |e| a negative e first, except that
    e = 1 goes before e = -1; then by r, s and the signs."""
    spec, e = item
    return -abs(e), e if abs(e) > 1 else -e, spec.r, spec.s, spec.sign_a, spec.sign_b


def _lower_parts(node, path):
    """(c, k, {factor: e}) for ``node``, found at ``path``: each factor a
    theta base (a ThetaSpec) or a dense node."""
    kind = type(node)
    if kind is IntLit:
        return node.value, 0, {}
    if kind is Q:
        return 1, 1, {}
    if kind is F:
        return 1, 0, {_euler(node.k): 1}
    if kind is Poch:
        return 1, 0, {node: 1}
    if kind is ThetaSpec:
        spec = node.canonical()
        if spec.r:
            return 1, 0, {spec: 1}
        # f(1, b) = 2 f(b, b^3) and f(-1, b) = 0 (Berndt, Ramanujan's
        # Notebooks III, ch. 16, Entry 18)
        return 1 + spec.sign_a, 0, {ThetaSpec(spec.sign_b, spec.s, spec.sign_b, 3 * spec.s): 1}
    if kind is Fun:
        parts = _lower_parts(_FUN_DEFINITIONS[node.name], path)
        return _dilate_parts(_negate_parts(parts) if node.neg else parts, node.t)
    if kind is Mul:
        return _times(_lower_parts(node.left, path + ("left",)),
                      _lower_parts(node.right, path + ("right",)), node)
    if kind is Div:
        right = _unit_parts(node.right, path + ("denominator",), "divide")
        return _times(_lower_parts(node.left, path + ("numerator",)),
                      _power_parts(right, -1, node), node)
    if kind is Pow:
        where = path + ("base",)
        if node.exponent < 0:
            return _power_parts(_unit_parts(node.base, where, f"raise to {node.exponent}"),
                                node.exponent, node)
        return _power_parts(_lower_parts(node.base, where), node.exponent, node)
    if kind is Neg:
        c, k, factors = _lower_parts(node.child, path + ("child",))
        return -c, k, factors
    if kind is Dilate:
        return _dilate_parts(_lower_parts(node.child, path + ("child",)), node.t)
    if kind is NegQ:
        c, k, factors = _lower_parts(node.child, path + ("child",))
        return _negate_parts((c, k, _pair(factors)))
    if kind in _DENSE_LEAVES:
        # evaluated here, so an error inside it reports its place in the tree
        _evaluate(node, 1, path)
        return 1, 0, {node: 1}
    raise TypeError(f"not an expression node: {node!r}")


def _unit_parts(node, path, verb):
    """The parts of ``node``, the denominator at ``path``; EvaluationError
    unless its constant term is +1 or -1."""
    parts = _lower_parts(node, path)
    constant = 0 if parts[1] else parts[0]
    for factor, e in parts[2].items():
        # a theta base or a poch (a >= 1) has constant term 1, and a factor
        # of a negative exponent is a unit already
        if type(factor) not in (ThetaSpec, Poch):
            constant *= _evaluate(factor, 1, path)[0] ** abs(e)
    try:
        require_unit(constant)
    except NonUnitConstantTerm as exc:
        where = "/".join(path)
        raise EvaluationError(f"cannot {verb}: {exc} in {unparse(node)} (at {where})") from exc
    return parts


def _times(x, y, node):
    factors = dict(x[2])
    for factor, e in y[2].items():
        factors[factor] = factors.get(factor, 0) + e
    c = x[0] * y[0]
    _check_bits(c.bit_length(), node)
    return c, x[1] + y[1], factors


def _power_parts(parts, e, node):
    """``parts`` to the power ``e``; a negative e needs a unit (c = +-1, k = 0),
    so c^e is c^|e|.  A c of b >= 2 bits has at least (b-1)|e| + 1 bits to
    that power, so a power past the budget is refused before it is taken."""
    c, k, factors = parts
    if abs(c) > 1:
        _check_bits((c.bit_length() - 1) * abs(e) + 1, node, "at least ")
    c = c ** abs(e)
    _check_bits(c.bit_length(), node)
    return c, k * e, {factor: x * e for factor, x in factors.items()}


def _check_bits(bits, node, bound=""):
    """Raise BudgetExceeded if ``bits``, the size of the integers of ``node``
    multiplied so far, is above MAX_EXPONENT: lowering keeps this running
    bound, so it never builds an integer much wider than the budget."""
    if bits > MAX_EXPONENT:
        raise BudgetExceeded(f"the integers in {unparse(node)} multiply to {bound}{bits}"
                             f" bits, above the budget of {MAX_EXPONENT}")


def _dilate_parts(parts, t):
    c, k, factors = parts
    return c, k * t, {(x.dilate(t) if type(x) is ThetaSpec else Poch(x.a * t, x.m * t)
                       if type(x) is Poch else Dilate(x, t)): e for x, e in factors.items()}


def _negate_parts(parts):
    c, k, factors = parts
    return c * (-1) ** k, k, {(x.negate_q() if type(x) is ThetaSpec else NegQ(x)): e
                              for x, e in factors.items()}


def _pair(factors):
    """``factors`` with each Pochhammer symbol that has a theta form
    rewritten as thetas, and no zero exponent."""
    factors = dict(factors)

    def add(spec, e):
        factors[spec] = factors.get(spec, 0) + e

    for poch in sorted(x for x in factors if type(x) is Poch):
        a, m = poch
        e = factors[poch]
        if not e:
            continue
        if a == m:
            add(_euler(m), e)
            factors[poch] = 0
        elif 2 * a == m:
            add(_euler(a), e)
            add(_euler(m), -e)
            factors[poch] = 0
        elif a < m and factors.get(Poch(m - a, m)):
            # pair as many as the smaller exponent allows; the other keeps the rest
            partner = factors[Poch(m - a, m)]
            p = e if abs(e) <= abs(partner) else partner
            add(ThetaSpec(-1, a, -1, m - a), p)
            add(_euler(m), -p)
            factors[poch], factors[Poch(m - a, m)] = e - p, partner - p
    return {x: e for x, e in factors.items() if e}


def _product_series(product, order):
    """``product`` to ``order``: the sparse theta quotient, times each
    dense factor raised by ``Series ** e``, times c, shifted by k.

    Where c, k or a dense factor is present, the theta quotient is
    fetched through the cache under a Product of its own, so products
    that differ only there share its build."""
    c, k, thetas, dense = product
    n = order - k
    if c == 0 or n <= 0:
        return Series([0] * order)
    if (c, k, dense) == (1, 0, ()):
        return Series(_theta_quotient(thetas, n))
    coeffs = list(_evaluate(Product(1, 0, thetas, ()), n)) if thetas else None
    for factor, e in dense:
        value = list(_evaluate(factor, n) ** e)
        coeffs = value if coeffs is None else _backend.mul_trunc(coeffs, value, n)
    if coeffs is None:
        coeffs = [1] + [0] * (n - 1)
    return Series([0] * k + [c * x for x in coeffs])


def _theta_quotient(thetas, n):
    """prod theta^e to ``n`` terms, as a list, for ``thetas`` in the order
    of ``Product.thetas``, which is the order of the build.

    One base to one power is Miller's recurrence.  Otherwise the bases
    go largest |e| first; among equal |e| a negative base goes first,
    since a sparse division costs more than a sparse product, except that
    a first power needs no recurrence at all: R = f(-q,-q^4)/f(-q^2,-q^3)
    is one sparse division of a theta series.  The caller has just missed
    the cache for the whole product, so the build starts from the longest
    shorter prefix ``thetas[:size]`` whose product (c = 1, k = 0, no dense
    factor) the cache holds to at least ``n`` terms, down to two bases: C
    = B * f(-q^10,-q^15)/f(-q^5,-q^20) starts from B, and D from A.  With
    no such entry it starts from the first base alone, raised by Miller's
    recurrence through the cache, so products that share it share its
    build.  Each unit of exponent of the remaining bases is one sparse
    product or quotient, taken in turn so that intermediate coefficients
    stay near the width of the result; a base with |e| above
    MAX_SPARSE_STEPS gets a Miller power of its own and one dense product
    instead.
    """
    if not thetas:
        return [1] + [0] * (n - 1)
    if len(thetas) == 1:
        spec, e = thetas[0]
        if e == 1:
            return list(qfunctions.theta_general(spec, n))
        return _backend.sparse_power(qfunctions.theta_terms(spec, n)[1:], e, n)
    for size in range(len(thetas) - 1, 0, -1):
        prefix = Product(1, 0, thetas[:size], ())
        start = _lookup(prefix, n) if size > 1 else _evaluate(prefix, n)
        if start is not None:
            break
    coeffs = list(start.coeffs)
    muls, divs = [], []
    for spec, e in thetas[size:]:
        if abs(e) > MAX_SPARSE_STEPS:
            power = _evaluate(Product(1, 0, ((spec, e),), ()), n)
            coeffs = _backend.mul_trunc(coeffs, list(power.coeffs), n)
            continue
        terms = qfunctions.theta_terms(spec, n)[1:]
        (muls if e > 0 else divs).extend([terms] * abs(e))
    for i in range(max(len(muls), len(divs))):
        if i < len(muls):
            coeffs = _backend.sparse_mul(coeffs, muls[i], n)
        if i < len(divs):
            coeffs = _backend.sparse_div(coeffs, divs[i], n)
    return coeffs


# ---------------------------------------------------------------------------
# Identity records and manifests


class IdentityRecord(Record):
    """Named identity: lhs == rhs exactly, or lhs == rhs (mod modulus) for a
    modulus that is an int >= 2 (any other raises InvalidModulus)."""

    __slots__ = ()
    _fields = ("name", "lhs", "rhs", "modulus", "anchor")

    def __new__(cls, name, lhs, rhs, modulus=None, anchor=""):
        if modulus is not None:
            require_modulus(modulus)
        return Record.__new__(cls, name, lhs, rhs, modulus, anchor)

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
    body, _, anchor = m.group("body").partition("@")
    sides = body.split("==")
    if len(sides) != 2:
        raise ManifestError("expected exactly one '==' separator", line_number, name)
    try:
        return IdentityRecord(name, parse(sides[0]), parse(sides[1]), modulus, anchor.strip())
    except (ParseError, InvalidModulus) as exc:
        raise ManifestError(str(exc), line_number, name) from exc


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
