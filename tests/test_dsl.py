"""Identity DSL: parsing, unparsing, evaluation, manifests."""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrseries import catalog, dsl, qfunctions
from rrseries.dsl import (
    Add,
    Dilate,
    Dissect,
    Div,
    F,
    Fun,
    IdentityRecord,
    IntLit,
    Mul,
    Neg,
    NegQ,
    Poch,
    PochFin,
    Pow,
    Q,
    Sub,
    Theta,
    evaluate,
    load_manifest,
    parse,
    parse_record,
    unparse,
)
from rrseries.errors import (
    BudgetExceeded,
    EvaluationError,
    ManifestError,
    NonUnitConstantTerm,
    ParseError,
    RRSeriesError,
    UnknownSymbol,
)
from rrseries.series import Series


# Fragments that concatenate into text close to the grammar.
PARSE_TOKENS = [
    "q", "f", "f0", "f1", "f25", "poch", "pochfin", "theta", "phi", "psi", "chi", "G",
    "H", "R", "dilate", "dissect", "negq", "(", ")", ",", "+", "-", "*", "/", "^",
    "0", "1", "5", "-1", "1" * (dsl.MAX_LITERAL_DIGITS + 1), " ", "\n",
]


class TestParse:
    def test_atom_f(self):
        assert parse("f1") == F(1)
        assert parse("f25") == F(25)

    def test_precedence_addition_vs_power(self):
        tree = parse("1+2*q^2")
        assert tree == Add(IntLit(1), Mul(IntLit(2), Pow(Q(), 2)))
        s = evaluate(tree, 4)
        assert s.coeffs == (1, 0, 2, 0)

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-q^2") == Neg(Pow(Q(), 2))

    def test_left_associativity(self):
        assert parse("1-2-3") == Sub(Sub(IntLit(1), IntLit(2)), IntLit(3))
        assert parse("q/2/3") == Div(Div(Q(), IntLit(2)), IntLit(3))

    def test_negative_exponent(self):
        assert parse("R(q)^-5") == Pow(Fun("R", False, 1), -5)

    def test_function_arguments(self):
        assert parse("phi(-q^3)") == Fun("phi", True, 3)
        assert parse("R(q^5)") == Fun("R", False, 5)
        assert parse("chi(-q)") == Fun("chi", True, 1)
        assert parse("theta(-1,1,-1,2)") == Theta(-1, 1, -1, 2)
        assert parse("poch(2,5)") == Poch(2, 5)
        assert parse("pochfin(1,1,3)") == PochFin(1, 1, 3)

    def test_operators(self):
        assert parse("dilate(f1,5)") == Dilate(F(1), 5)
        assert parse("dissect(q,5,2)") == Dissect(Q(), 5, 2)
        assert parse("negq(f2)") == NegQ(F(2))

    def test_truncated_input_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse("dissect(")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("q q")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            parse("foo(q)")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse("1 + $")
        assert info.value.line == 1
        assert info.value.column == 5

    def test_whitespace_insensitive(self):
        assert parse(" 1+ q  * f2 ") == parse("1+q*f2")

    def test_long_chain_is_a_parse_error(self):
        # a flat chain adds one tree level per operator and no nesting
        assert evaluate(parse("+".join(["q"] * dsl.MAX_TREE_DEPTH)), 3)[1] == dsl.MAX_TREE_DEPTH
        with pytest.raises(ParseError) as info:
            parse("+".join(["q"] * (dsl.MAX_TREE_DEPTH + 1)))
        # the operator that would add level MAX_TREE_DEPTH + 1
        assert (info.value.line, info.value.column) == (1, 2 * dsl.MAX_TREE_DEPTH)

    def test_deep_tree_within_nesting_bound_is_a_parse_error(self):
        # 99 levels of parentheses, each adding seven levels to the tree
        text = "q"
        for _ in range(99):
            text = f"({text} + q+q+q+q+q+q+q)"
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line == 1

    def test_successful_parse_computes_no_position(self, monkeypatch):
        calls = []
        line_col = dsl._line_col
        monkeypatch.setattr(dsl, "_line_col", lambda *args: calls.append(1) or line_col(*args))
        parse("\n + ".join(f"{i}*q^{i}" for i in range(150)))
        assert calls == []

    def test_long_chain_position_is_found_once(self, monkeypatch):
        calls = []
        line_col = dsl._line_col
        monkeypatch.setattr(dsl, "_line_col", lambda *args: calls.append(1) or line_col(*args))
        with pytest.raises(ParseError) as info:
            parse("+".join(["q"] * (128 * 1024)))  # 256 KB
        assert (info.value.line, info.value.column) == (1, 2 * dsl.MAX_TREE_DEPTH)
        assert calls == [1]

    def test_integer_literal_length_is_bounded(self):
        limit = dsl.MAX_LITERAL_DIGITS
        assert parse("9" * limit) == IntLit(int("9" * limit))
        for text in ("1" * (limit + 1), "q^" + "1" * (limit + 1), "f" + "1" * (limit + 1),
                     "dissect(q, 2, " + "1" * (limit + 1) + ")"):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert "longer than" in str(info.value)
            assert info.value.line == 1

    @pytest.mark.parametrize("text, column", [
        ("poch(0,5)", 1), ("poch(1,0)", 1), ("pochfin(0,1,2)", 1),
        ("pochfin(1,1,-1)", 1), ("q*pochfin(1,0,2)", 3), ("theta(1,-1,1,2)", 1),
        ("theta(1,0,1,0)", 1), ("dilate(f1, 0)", 1), ("q*dilate(q,-2)", 3),
        ("dissect(q,5,7)", 1), ("dissect(q,5,-1)", 1), ("dissect(q,0,0)", 1),
        ("f0", 1), ("phi(q^0)", 1), ("G(-q^0)", 1),
    ])
    def test_bad_product_parameters_are_parse_errors(self, text, column):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.line, info.value.column) == (1, column)

    @given(st.one_of(
        st.text(),
        st.text(alphabet="0123456789q+-*/^(),@ \nfpochinetaswrldgGHRx"),
        st.lists(st.sampled_from(PARSE_TOKENS), max_size=40).map("".join),
    ))
    @settings(max_examples=500, deadline=None)
    def test_parse_raises_only_typed_errors(self, text):
        try:
            parse(text)
        except RRSeriesError:
            pass

    def test_tree_depth_counts_every_operator(self):
        for op in ("+", "-", "*", "/"):
            parse(op.join(["q"] * dsl.MAX_TREE_DEPTH))
            with pytest.raises(ParseError):
                parse(op.join(["q"] * (dsl.MAX_TREE_DEPTH + 1)))
        # dilate/negq/dissect/^ each add one level to their argument's tree
        chain = "+".join(["q"] * (dsl.MAX_TREE_DEPTH - 1))
        for wrapped in (f"dilate({chain},2)", f"negq({chain})", f"dissect({chain},2,1)",
                        f"({chain})^2", f"-({chain})"):
            parse(wrapped)
            with pytest.raises(ParseError):
                parse(f"negq({wrapped})")


class TestParseMemo:
    @pytest.fixture
    def tokenized(self, monkeypatch):
        """The texts ``_tokenize`` is called on, from a cleared memo on."""
        dsl.clear_cache()
        calls = []
        tokenize = dsl._tokenize
        monkeypatch.setattr(dsl, "_tokenize", lambda text: calls.append(text) or tokenize(text))
        return calls

    def test_repeated_text_returns_the_same_tree_untokenized(self, tokenized):
        text = "dissect(1/R(q)^5, 16, 13)"
        tree = parse(text)
        assert parse(text) is tree
        assert tokenized == [text]
        assert parse(" " + text) == tree  # another text: parsed on its own
        assert tokenized == [text, " " + text]

    def test_errors_are_never_memoized(self, tokenized):
        for _ in range(3):
            with pytest.raises(ParseError) as info:
                parse("1 + $")
            assert (info.value.line, info.value.column) == (1, 5)
        assert tokenized == ["1 + $"] * 3
        assert parse.cache_info().currsize == 0

    def test_memo_is_bounded(self, tokenized):
        for i in range(dsl.PARSE_CACHE_SIZE + 50):
            parse(f"q^{i}")
        assert parse.cache_info().currsize <= dsl.PARSE_CACHE_SIZE
        parse("q^0")  # the oldest text was evicted
        assert len(tokenized) == dsl.PARSE_CACHE_SIZE + 51

    def test_clear_cache_empties_the_memo(self):
        for clear in (dsl.clear_cache, catalog.clear_cache):
            parse("f1*f2")
            assert parse.cache_info().currsize > 0
            clear()
            assert parse.cache_info().currsize == 0


EXPRESSIONS = [
    "1/R(q)^5 - q^2*R(q)^5",
    "11*q + f1^6/f5^6",
    "dissect(1/R(q)^5, 5, 2)",
    "(f25^5/f5^6)*(1/R(q^5)^4 + q/R(q^5)^3)",
    "phi(-q^3)/chi(-q)",
    "theta(1,3,1,15) + negq(psi(q^9))",
    "-q^2*G(q)^10 + pochfin(1,2,3)",
]

atoms = st.one_of(
    st.integers(min_value=0, max_value=99).map(IntLit),
    st.just(Q()),
    st.integers(1, 30).map(F),
    st.builds(Poch, st.integers(1, 9), st.integers(1, 9)),
    st.builds(PochFin, st.integers(1, 9), st.integers(1, 9), st.integers(0, 5)),
    st.builds(Theta, st.sampled_from([1, -1]), st.integers(0, 8),
              st.sampled_from([1, -1]), st.integers(1, 8)),
    st.builds(Fun, st.sampled_from(dsl.FUN_NAMES), st.booleans(), st.integers(1, 9)),
)


def _compound(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.integers(-6, 6)),
        st.builds(Neg, children),
        st.builds(NegQ, children),
        st.builds(Dilate, children, st.integers(1, 6)),
        children.flatmap(
            lambda c: st.integers(2, 6).flatmap(
                lambda t: st.integers(0, t - 1).map(lambda j: Dissect(c, t, j))
            )
        ),
    )


expressions = st.recursive(atoms, _compound, max_leaves=12)


class TestUnparse:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_round_trip_fixed(self, text):
        tree = parse(text)
        assert parse(unparse(tree)) == tree

    @given(expressions)
    @settings(max_examples=200)
    def test_round_trip_random_trees(self, tree):
        assert parse(unparse(tree)) == tree


class TestEvaluate:
    def test_zero(self):
        assert evaluate(parse("0"), 5) == Series([0] * 5)

    def test_gh_equals_eta_quotient(self):
        assert evaluate(parse("G(q)*H(q)"), 50) == evaluate(parse("f5/f1"), 50)

    def test_phi_negq(self):
        assert evaluate(parse("phi(-q)"), 60) == evaluate(parse("f1^2/f2"), 60)

    def test_result_order_is_requested_order(self):
        for text in EXPRESSIONS:
            assert evaluate(parse(text), 37).order == 37

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_order_monotone(self, text):
        # lower order first: the cache serves a lower order from a higher one
        tree = parse(text)
        small = evaluate(tree, 20)
        big = evaluate(tree, 50)
        assert big.truncate(20) == small

    def test_division_by_non_unit_reports_path(self):
        with pytest.raises(EvaluationError) as info:
            evaluate(parse("1 + 1/q"), 5)
        assert "q" in str(info.value)

    def test_power_of_non_unit_reports_path(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("(2+q)^-1"), 5)

    def test_poch_denominators_are_not_built_to_order_one(self):
        # a poch has constant term 1: checking a denominator builds no poch
        dsl.clear_cache()
        evaluate(parse("1/(poch(1,5)*poch(4,5))"), 30)
        assert not [key for key in dsl._eval_cache if type(key) is Poch]
        # partitions into parts 1 mod 7
        expected = [1] + [0] * 59
        for part in range(1, 60, 7):
            for i in range(part, 60):
                expected[i] += expected[i - part]
        assert list(evaluate(parse("1/poch(1,7)"), 60).coeffs) == expected
        assert evaluate_fresh(parse("1/(3*poch(1,5))"), 10) == (
            "cannot divide: constant term 3 is not a unit in Z[[q]] in 3*poch(1,5)"
            " (at denominator)")
        dsl.clear_cache()

    def test_a_cache_hit_is_one_lookup_and_no_budget_walk(self, monkeypatch):
        tree = parse("R(q)^5*(1+q)")
        dsl.clear_cache()
        warm = evaluate(tree, 40)

        def walked(*args):
            raise AssertionError("check_budget ran on a cache hit")

        lookup, lookups = dsl._lookup, []
        monkeypatch.setattr(dsl, "check_budget", walked)
        monkeypatch.setattr(dsl, "_lookup", lambda *args: lookups.append(1) or lookup(*args))
        assert evaluate(tree, 40) == warm
        assert evaluate(tree, 39) == warm.truncate(39)
        assert len(lookups) == 2
        dsl.clear_cache()

    def test_dissect_requests_parent_order(self):
        # dissect at period 5 certifies exactly the requested order
        s = evaluate(parse("dissect(f1, 5, 4)"), 11)
        f1 = evaluate(parse("f1"), 60)
        assert s.coeffs == tuple(f1[5 * n + 4] for n in range(11))


def evaluate_fresh(tree, order):
    """``evaluate`` on an empty cache, so no other entry can serve it; the
    result, or the message of the EvaluationError it raised."""
    dsl.clear_cache()
    try:
        return evaluate(tree, order)
    except EvaluationError as exc:
        return str(exc)
    finally:
        dsl.clear_cache()


class TestEvaluateModM:
    """A congruence is checked on the exact value, so a denominator is
    refused exactly as in an equality."""

    def test_non_unit_denominator_is_refused_as_exactly(self):
        message = "cannot divide: constant term 3 is not a unit in Z[[q]] in 3 + q (at denominator)"
        assert evaluate_fresh(parse("1/(3+q)"), 5) == message


def dense_oracle(node, order, path=()):
    """Test-local dense evaluator of a tree: the qfunctions constructors
    with Series +, -, *, invert, ** and dissect, in the evaluator's order of
    evaluation, raising the evaluator's EvaluationError, with its path
    names, for a non-unit denominator."""

    def inverse(child, value, where, verb):
        try:
            return value.invert()
        except NonUnitConstantTerm as exc:
            raise EvaluationError(
                f"cannot {verb}: {exc} in {unparse(child)} (at {'/'.join(where)})") from exc

    def dilated(value, t):
        coeffs = list(value.dilate(t).coeffs)[:order]
        return Series(coeffs + [0] * (order - len(coeffs)))

    if isinstance(node, IntLit):
        return node.value * Series.one(order)
    if isinstance(node, Q):
        return Series(([0, 1] + [0] * order)[:order])
    if isinstance(node, F):
        return qfunctions.euler_f(node.k, order)
    if isinstance(node, Poch):
        return qfunctions.pochhammer_inf(node.a, node.m, order)
    if isinstance(node, Theta):
        return qfunctions.theta_product(
            qfunctions.ThetaSpec(node.sign_a, node.r, node.sign_b, node.s), order)
    if isinstance(node, Fun):
        inner = -(-order // node.t)
        if node.name == "phi":
            value = qfunctions.theta_product(qfunctions.ThetaSpec(1, 1, 1, 1), inner)
        elif node.name == "psi":
            value = qfunctions.theta_product(qfunctions.ThetaSpec(1, 1, 1, 3), inner)
        elif node.name == "chi":
            value = qfunctions.signed_pochhammer_inf(-1, 1, 1, 2, inner)
        else:
            g = (qfunctions.pochhammer_inf(1, 5, inner)
                 * qfunctions.pochhammer_inf(4, 5, inner)).invert()
            h = (qfunctions.pochhammer_inf(2, 5, inner)
                 * qfunctions.pochhammer_inf(3, 5, inner)).invert()
            value = {"G": g, "H": h, "R": h * g.invert()}[node.name]
        return dilated(value.negate_q() if node.neg else value, node.t)
    if isinstance(node, Mul):
        return dense_oracle(node.left, order, path + ("left",)) * dense_oracle(
            node.right, order, path + ("right",))
    if isinstance(node, Div):
        where = path + ("denominator",)
        inv = inverse(node.right, dense_oracle(node.right, order, where), where, "divide")
        return dense_oracle(node.left, order, path + ("numerator",)) * inv
    if isinstance(node, Pow):
        where = path + ("base",)
        base = dense_oracle(node.base, order, where)
        if node.exponent < 0:
            return inverse(node.base, base, where, f"raise to {node.exponent}") ** -node.exponent
        return base ** node.exponent
    if isinstance(node, Neg):
        return -dense_oracle(node.child, order, path + ("child",))
    if isinstance(node, NegQ):
        return dense_oracle(node.child, order, path + ("child",)).negate_q()
    if isinstance(node, Dilate):
        return dilated(dense_oracle(node.child, -(-order // node.t), path + ("child",)), node.t)
    if isinstance(node, (Add, Sub)):
        left = dense_oracle(node.left, order, path + ("left",))
        right = dense_oracle(node.right, order, path + ("right",))
        return left + right if isinstance(node, Add) else left - right
    if isinstance(node, Dissect):
        child = dense_oracle(node.child, node.t * order, path + ("child",))
        return child.dissect(node.t, node.j).truncate(order)
    if isinstance(node, PochFin):
        return qfunctions.pochhammer_fin(node.a, node.m, node.n, order)
    raise TypeError(f"not an expression node: {node!r}")


@st.composite
def pochhammer_atoms(draw):
    """poch(a,m), unpaired or with its partner poch(m-a,m); a = m and
    2a = m included."""
    m = draw(st.integers(2, 9))
    a = draw(st.integers(1, m))
    if a < m and draw(st.booleans()):
        return Mul(Poch(a, m), Poch(m - a, m))
    return Poch(a, m)


small_ints = st.integers(0, 3).map(IntLit)

product_atoms = st.one_of(
    st.integers(1, 6).map(F),
    pochhammer_atoms(),
    st.builds(Fun, st.sampled_from(dsl.FUN_NAMES), st.booleans(), st.integers(1, 3)),
    st.builds(Theta, st.sampled_from([1, -1]), st.integers(0, 4),
              st.sampled_from([1, -1]), st.integers(1, 4)),
    # constants and q: non-unit denominators, and factors of c and q^k
    small_ints,
    st.just(Q()),
    # a dense factor of its own
    st.builds(PochFin, st.integers(1, 4), st.integers(1, 4), st.integers(0, 3)),
)

product_trees = st.recursive(
    product_atoms,
    lambda children: st.one_of(
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.integers(-7, 7)),
        st.builds(Neg, children),
        st.builds(NegQ, children),
        st.builds(Dilate, children, st.integers(1, 3)),
        # dense factors: sums with small integers, so that non-unit
        # constant terms occur, and dissections
        st.builds(Add, children, st.one_of(children, small_ints)),
        st.builds(Sub, st.one_of(children, small_ints), children),
        st.builds(lambda child, t, j: Dissect(child, t, j % t),
                  children, st.integers(2, 3), st.integers(0, 2)),
    ),
    max_leaves=6,
)


def oracle_fresh(tree, order):
    try:
        return dense_oracle(tree, order)
    except EvaluationError as exc:
        return str(exc)


class TestThetaQuotientEngine:
    """The sparse theta-quotient engine against a dense evaluator."""

    @given(product_trees)
    @example(parse("R(q)^-5*R(q^2)^3/chi(-q)^7"))
    @example(parse("poch(1,5)^5*poch(4,5)^3*poch(1,7)^-2/poch(3,6)"))
    @example(parse("negq(poch(1,5)*poch(4,5))*dilate(G(-q)^-7,2)"))
    @example(parse("f1^7*f2^-7*f3^7/f4^7"))
    @example(parse("(2*q*f1)^-1"))
    @example(parse("theta(1,0,1,2)*f1/(q/q)"))
    # f(1, b) = 2 f(b, b^3) and f(-1, b) = 0, against the triple product
    @example(parse("negq(theta(1,0,-1,3))^3*dilate(theta(1,2,1,0),3)^2/f1"))
    @example(parse("dilate(negq(theta(-1,0,1,5))*f2,2)^4"))
    @example(parse("f2/dilate(theta(1,3,1,0),2)^-2"))
    # dense factors, and errors inside them at their own paths
    @example(parse("f1*dissect(1/(3+q),2,0)"))
    @example(parse("1/(f1*(1/(3+q)+q))"))
    @example(parse("(3+q)/(3+q)"))
    @example(parse("negq(poch(1,7))^-3*f2"))
    @example(parse("dilate(1/(2+q),2)*f1"))
    @settings(max_examples=200, deadline=None)
    def test_random_products_match_dense_oracle(self, tree):
        order = 30
        # the same series, or the same EvaluationError
        assert evaluate_fresh(tree, order) == oracle_fresh(tree, order)

    @given(product_trees, st.integers(1, 6), st.sampled_from([9, 30, 47]))
    @example(parse("R(q)^5/R(q^5)"), 2, 47)  # C after B: starts from B
    @example(parse("R(q)^5/R(q^5)"), 2, 9)  # B to fewer terms than C needs: unused
    @example(parse("5*q*R(q)^5*poch(1,7)"), 2, 30)  # the theta part is B
    @example(parse("R(q)^5*dissect(1/(3+q),2,0)"), 2, 30)  # lowering raises
    @example(parse("dilate(1-poch(1,3),2)*R(q)^-2"), 1, 9)  # a warm dense factor
    @settings(max_examples=150, deadline=None)
    def test_results_do_not_depend_on_the_cache(self, tree, size, warm):
        # cache the product of the first ``size`` bases of the tree's theta
        # part, in the engine's ranking, to ``warm`` terms: more than the
        # request needs, so the build may start from it, or fewer, so it
        # must not; and each dense factor to ``warm`` terms.  Lowering
        # raises the error evaluation raises.
        order = 30
        expected = evaluate_fresh(tree, order)
        try:
            product = dsl.lower(tree)
            if product.thetas:
                bases = product.thetas[:size]
                evaluate(functools.reduce(Mul, [
                    Pow(Theta(spec.sign_a, spec.r, spec.sign_b, spec.s), e)
                    for spec, e in bases]), warm)
            for factor, _ in product.dense:
                evaluate(factor, warm)
            value = evaluate(tree, order)
        except EvaluationError as exc:
            value = str(exc)
        finally:
            dsl.clear_cache()
        assert value == expected == oracle_fresh(tree, order)

    def test_lowering_rules(self):
        f = qfunctions.ThetaSpec
        t1, t2 = f(-1, 1, -1, 4), f(-1, 2, -1, 3)
        assert dsl.lower(parse("1/R(q)^5")) == dsl.lower(parse("R(q)^-5")) == dsl.Product(
            1, 0, ((t1, -5), (t2, 5)), ())
        assert dsl.lower(parse("poch(1,5)*poch(4,5)")) == dsl.Product(
            1, 0, ((t1, 1), (f(-1, 5, -1, 10), -1)), ())
        # dilation scales exponents; negq flips the signs of odd ones
        assert dsl.lower(parse("-3*q^2*negq(dilate(f1*q, 3))")) == dsl.Product(
            3, 5, ((f(1, 3, -1, 6), 1),), ())
        assert dsl.lower(parse("poch(1,7)^2*poch(6,7)^5")).dense == ((Poch(6, 7), 3),)
        # f(1, b) = 2 f(b, b^3) and f(-1, b) = 0
        assert dsl.lower(parse("theta(1,0,1,1)*f1")) == dsl.Product(
            2, 0, ((f(-1, 1, -1, 2), 1), (f(1, 1, 1, 3), 1)), ())
        assert dsl.lower(parse("f1*theta(1,2,-1,0)")) == dsl.Product(0, 0, (), ())
        # a factor that is no product is a dense factor, sorted by its text
        one_plus_q, f1 = parse("1 + q"), (f(-1, 1, -1, 2), 1)
        for text, thetas, dense in (
            ("1 + q", (), ((one_plus_q, 1),)),
            ("negq(poch(1,7))", (), ((NegQ(Poch(1, 7)), 1),)),
            ("pochfin(1,2,3)*f1", (f1,), ((PochFin(1, 2, 3), 1),)),
            ("dissect(f1,2,0)", (), ((Dissect(F(1), 2, 0), 1),)),
            ("(1+q)/(1+q)*f1", (f1,), ()),
            # a dilation takes poch(a,m) to poch(a*t,m*t), x to dilate(x,t)
            ("dilate(poch(1,7)*(1+q)^-2*f1, 3)", ((f(-1, 3, -1, 6), 1),),
             ((Dilate(one_plus_q, 3), -2), (Poch(3, 21), 1))),
            # negq takes x to negq(x), after pairing
            ("negq(poch(1,7)*poch(6,7)/(1-q))", ((f(1, 1, -1, 6), 1), (f(1, 7, -1, 14), -1)),
             ((NegQ(parse("1 - q")), -1),)),
        ):
            assert dsl.lower(parse(text)) == dsl.Product(1, 0, thetas, dense), text
        # a non-unit denominator is the evaluator's error, at the same place
        for text, message in (
            ("f1/(2*f1)", "cannot divide: constant term 2 is not a unit in Z[[q]] in 2*f1"
                          " (at denominator)"),
            ("1/q", "cannot divide: constant term 0 is not a unit in Z[[q]] in q (at denominator)"),
            ("f1*theta(1,0,1,1)^-1", "cannot raise to -1: constant term 2 is not a unit in"
                                     " Z[[q]] in theta(1,0,1,1) (at right/base)"),
            ("f1*dissect(1/(3+q),2,0)", "cannot divide: constant term 3 is not a unit in"
                                        " Z[[q]] in 3 + q (at right/child/denominator)"),
        ):
            with pytest.raises(EvaluationError) as info:
                dsl.lower(parse(text))
            assert str(info.value) == message == evaluate_fresh(parse(text), 5)

    def test_the_theta_part_has_an_entry_of_its_own(self, count_kernel_calls):
        # 2*q*R(q)^5 and R(q)^5*(1+q) share the build of R(q)^5
        dsl.clear_cache()
        evaluate(parse("2*q*R(q)^5"), 41)
        calls = count_kernel_calls()
        assert evaluate(parse("R(q)^5*(1+q)"), 40) == evaluate(parse("R(q)^5"), 40) * (
            evaluate(parse("1+q"), 40))
        assert not [name for name in calls if name.startswith("sparse")]
        dsl.clear_cache()

    def test_an_atom_shares_the_entry_of_its_product(self, count_kernel_calls, monkeypatch):
        # f3 and theta(-1,3,-1,6) lower to one Product: the second is a cache hit
        dsl.clear_cache()
        f3 = evaluate(parse("f3"), 40)
        calls = count_kernel_calls()
        theta_general = qfunctions.theta_general
        monkeypatch.setattr(qfunctions, "theta_general",
                            lambda *args: calls.append("theta_general") or theta_general(*args))
        assert evaluate(parse("theta(-1,3,-1,6)"), 40) == f3
        assert calls == []
        dsl.clear_cache()

    def test_huge_exponents_stay_cheap(self, count_kernel_calls):
        # bases past MAX_SPARSE_STEPS get a Miller power and one dense product
        dsl.clear_cache()
        calls = count_kernel_calls()
        value = evaluate(parse("(f1*f2^-1*f3)^100000"), 8)
        assert calls.count("sparse_power") == 3 and len(calls) <= 6
        assert value == dense_oracle(parse("f1^100000*f3^100000"), 8) * (
            qfunctions.euler_f(2, 8) ** 100000).invert()

    @pytest.mark.parametrize("wrapper", ["negq({})", "dilate({},1)", "dilate(negq({}),2)"])
    def test_nested_wrappers_lower_once(self, monkeypatch, wrapper):
        # a run of negq and dilate around a dense factor is lowered once,
        # not once per level
        depth, text = 99, "1+q"
        for _ in range(depth // wrapper.count("(")):
            text = wrapper.format(text)
        tree = parse(text)
        lower_parts, calls = dsl._lower_parts, []
        monkeypatch.setattr(dsl, "_lower_parts",
                            lambda *args: calls.append(1) or lower_parts(*args))
        value = evaluate_fresh(tree, 10)
        assert len(calls) <= 2 * depth
        assert value == dense_oracle(tree, 10)


class TestBudget:
    @pytest.mark.parametrize("text, order", [
        ("dissect(q,100000000,0)", 10),
        ("f1 + dissect(f2*f3, 100000, 2)", 11),
        ("dilate(dissect(q, 1000, 0), 2) * f1", 2001),
        ("q", dsl.MAX_ORDER + 1),
        ("(1+q)^1000001", 5),
        ("f1*(2+q)^-1000001", 5),
        # nested powers multiply their exponents
        ("(2^1000000)^1000000", 2),
        ("((2+q)^1000000)^1000000", 2),
        ("dissect((f1*(1+q)^-1001)^1000, 2, 0)", 2),
        # the exponent counts times the bits of the base's integers
        ("(2+q)^1000000", 10),
    ])
    def test_refused_before_any_kernel_call(self, count_kernel_calls, text, order):
        calls = count_kernel_calls()
        dsl.clear_cache()
        with pytest.raises(BudgetExceeded):
            evaluate(parse(text), order)
        assert calls == []

    @pytest.mark.parametrize("text, message", [
        ("((2+q)^2)^500000", "exponent 2 in (2 + q)^2, raised to 500000 by the powers around it,"
                             " times the 2 bits of its largest integer, is above the budget"
                             " of 1000000"),
        ("(1+q)^1000001", "exponent 1000001 in (1 + q)^1000001 is above the budget of 1000000"),
        # powers of one dense factor, and the integers, count together once lowered
        ("(2+q)^499999*(2+q)^499999*(2+q)^499999*(2+q)^499999",
         "exponent 1999996 in (2 + q)^1999996, times the 2 bits of its largest integer, is above"
         " the budget of 1000000"),
        ("dilate(poch(1,7),2)^600000*poch(2,14)^600000*f1", "exponent 1200000 in"
         " poch(2,14)^1200000 is above the budget of 1000000"),
        # the integers count as they are multiplied in: refused at the third factor
        ("*".join(["2^400000"] * 8) + "*f1", "the integers in " + "*".join(["2^400000"] * 3)
         + " multiply to 1200001 bits, above the budget of 1000000"),
        ("*".join(["2^400000"] * 50) + "*f1", "the integers in " + "*".join(["2^400000"] * 3)
         + " multiply to 1200001 bits, above the budget of 1000000"),
        # a power of a wide integer is refused before it is taken
        ("(3^200000*3^200000*f1)^2", "the integers in (3^200000*3^200000*f1)^2 multiply to"
                                     " at least 1267971 bits, above the budget of 1000000"),
    ])
    def test_refusal_names_the_exponent(self, count_kernel_calls, text, message):
        calls = count_kernel_calls()
        dsl.clear_cache()
        with pytest.raises(BudgetExceeded) as info:
            evaluate(parse(text), 10)
        assert str(info.value) == message
        assert calls == []

    def test_split_powers_within_the_budget_are_accepted(self):
        # (1+q)^1000000 is inside the budget, alone or in two halves
        expected = [1, 1000000, 499999500000, 166666166667000000]
        assert list(evaluate(parse("(1+q)^1000000"), 4)) == expected
        assert list(evaluate(parse("(1+q)^500000*(1+q)^500000"), 4)) == expected
        dsl.clear_cache()

    def test_lower_runs_the_budget_check(self, count_kernel_calls):
        # lowering evaluates each dense factor to order 1, within the budget
        calls = count_kernel_calls()
        dsl.clear_cache()
        with pytest.raises(BudgetExceeded):
            dsl.lower(parse("f1*dissect(f2*(1+q), 100000000, 0)"))
        assert calls == []

    @pytest.mark.parametrize("text, needed", [
        ("f1", lambda n: n),
        ("dissect(f1,4,1)", lambda n: 4 * n),
        ("dilate(dissect(f1,4,0),2)", lambda n: 4 * -(-n // 2)),
        ("dissect(dissect(f1,2,0),2,1)", lambda n: 4 * n),
        ("q*dissect(f1,4,1)", lambda n: 4 * n),
        # a dilation is built at its own order, above its child's
        ("dilate(q,1000000000)", lambda n: n),
    ])
    @pytest.mark.parametrize("order", [1, 7, 10, 40])
    def test_check_budget_returns_the_order_the_tree_needs(self, text, needed, order):
        assert dsl.check_budget(parse(text), order) == needed(order)

    @given(st.one_of(product_trees, expressions))
    @example(parse("dilate(dissect(f1,4,0),2)*dissect(dissect(f2,2,0),3,1)"))
    @example(parse("q*dissect(f1+q,4,1)"))
    @settings(max_examples=200, deadline=None)
    def test_no_build_passes_the_order_check_budget_returns(self, tree):
        # on a cold cache every node and every Product is built, each at
        # most to the order the budget walk returned; an evaluation error
        # still comes after every build it made
        built, compute, product_series = [], dsl._compute, dsl._product_series
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dsl, "_compute",
                          lambda node, n, path: built.append(n) or compute(node, n, path))
            patch.setattr(dsl, "_product_series",
                          lambda product, n: built.append(n) or product_series(product, n))
            for order in (1, 7, 40):
                try:
                    bound = dsl.check_budget(tree, order)
                except BudgetExceeded:
                    continue
                built.clear()
                evaluate_fresh(tree, order)
                assert built and max(built) <= bound, order

    def test_limits_sit_above_the_orders_in_use(self):
        # the deepest manifest evaluation: period 16 at -N 500
        assert dsl.MAX_ORDER >= 16 * 500 and dsl.MAX_ORDER >= 20000
        assert evaluate(parse("dilate(dissect(q, 1000, 0), 2)"), 1000).order == 1000
        big = evaluate(parse("dilate(q, 1000000000)"), 10)
        assert big == Series([0] * 10)


class TestManifest:
    def test_parse_record_exact(self):
        rec = parse_record("[gh] : G(q)*H(q) == f5/f1 @ product relation")
        assert rec.name == "gh"
        assert rec.modulus is None
        assert rec.anchor == "product relation"

    def test_parse_record_congruence(self):
        rec = parse_record("[cube] (mod 3) : f1^3 == f3 @ cube")
        assert rec.modulus == 3
        assert rec.is_congruence

    def test_record_without_anchor(self):
        rec = parse_record("[x] : q == q")
        assert rec.anchor == ""

    def test_missing_separator(self):
        with pytest.raises(ManifestError):
            parse_record("[x] : q = q")

    def test_double_separator(self):
        with pytest.raises(ManifestError):
            parse_record("[x] : q == q == q")

    def test_bad_modulus(self):
        with pytest.raises(ManifestError):
            parse_record("[x] (mod 1) : q == q")

    def test_long_modulus_is_a_manifest_error(self):
        with pytest.raises(ManifestError):
            parse_record(f"[x] (mod {'3' * (dsl.MAX_LITERAL_DIGITS + 1)}) : q == q")

    def test_load_manifest_round_trip(self, tmp_path):
        path = tmp_path / "test.manifest"
        path.write_text(
            "# comment\n"
            "\n"
            "[one] : 1 + q == 1 + q @ trivial\n"
            "[two] (mod 2) : f1^2 == f2 @ square congruence\n",
            encoding="utf-8",
        )
        records = load_manifest(path)
        assert [r.name for r in records] == ["one", "two"]
        assert records[1].modulus == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.manifest"
        path.write_text("", encoding="utf-8")
        assert load_manifest(path) == []

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "dup.manifest"
        path.write_text("[a] : q == q\n[a] : 1 == 1\n", encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert info.value.line_number == 2

    def test_parse_error_carries_record_name(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("[broken] : dissect( == q\n", encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert info.value.name == "broken"

    def test_bad_product_parameters_name_the_record(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("[ok] : q == q\n[bad] : poch(0,5) == 1\n", encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert (info.value.name, info.value.line_number) == ("bad", 2)

    def test_bad_dissection_names_the_record(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("[ok] : q == q\n[bad] : dissect(q,5,7) == 0\n", encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert (info.value.name, info.value.line_number) == ("bad", 2)
        assert "dissection needs t >= 1 and 0 <= j < t" in str(info.value)

    def test_bundled_manifest_loads_and_round_trips(self):
        from rrseries.verify import default_manifest_path

        records = load_manifest(default_manifest_path())
        assert len(records) >= 40
        for rec in records:
            assert parse(unparse(rec.lhs)) == rec.lhs
            assert parse(unparse(rec.rhs)) == rec.rhs

    def test_identity_record_fields(self):
        rec = IdentityRecord(name="n", lhs=Q(), rhs=Q(), modulus=None, anchor="a")
        assert not rec.is_congruence
