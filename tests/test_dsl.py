"""Identity DSL: parsing, unparsing, evaluation, manifests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrseries import dsl
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
from rrseries.errors import EvaluationError, ManifestError, ParseError, UnknownSymbol
from rrseries.series import Series


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
        assert evaluate(parse("0"), 5) == Series.zero(5)

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

    def test_dissect_requests_parent_order(self):
        # dissect at period 5 certifies exactly the requested order
        s = evaluate(parse("dissect(f1, 5, 4)"), 11)
        f1 = evaluate(parse("f1"), 60)
        assert s.coeffs == tuple(f1[5 * n + 4] for n in range(11))


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
