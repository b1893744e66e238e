"""The record contract of DSL nodes, specs and reports, and what importing costs."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from rrseries import dsl
from rrseries.dsl import (Add, Dilate, Dissect, Div, F, Fun, IdentityRecord, IntLit, Mul, Neg,
                          NegQ, Poch, PochFin, Pow, Product, Q, Sub)
from rrseries.errors import InvalidModulus
from rrseries.partitions import PartConstraint
from rrseries.qfunctions import ThetaSpec
from rrseries.report import VerificationReport
from rrseries.verify import ScanSpec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

X, Y = Q(), IntLit(2)
SPEC = ScanSpec("s", "A", 5, 3, sign="+", exceptions=(8, 3), max_n=50)
REPORT = VerificationReport("v", "fail", 10, (4, -1), 0.5, {"error": "x"})

# one instance of every record type
RECORDS = [
    IntLit(3), Q(), F(5), Poch(1, 5), PochFin(1, 2, 3), ThetaSpec(-1, 1, -1, 4),
    Fun("R", True, 2), Add(X, Y), Sub(X, Y), Mul(X, Y), Div(X, Y), Pow(X, -3), Neg(X),
    Dilate(X, 5), NegQ(X), Dissect(X, 5, 4),
    Product(2, 1, ((ThetaSpec(-1, 1, -1, 2), -1),), (((1, 7), 2),)),
    IdentityRecord("r", X, Y, 3, "anchor"),
    SPEC, PartConstraint(5, {1: 2, 4: 1}), REPORT,
]


class TestEquality:
    def test_records_of_different_types_with_equal_fields_differ(self):
        assert Add(X, Y) != Mul(X, Y)
        assert not Add(X, Y) == Mul(X, Y)
        assert Add(X, Y) == Add(Q(), IntLit(2))
        assert len({Add(X, Y), Mul(X, Y), Sub(X, Y), Div(X, Y)}) == 4

    def test_a_product_never_equals_a_node_or_a_tuple(self):
        product = dsl.lower(dsl.parse("f1"))
        assert product == Product(1, 0, ((ThetaSpec(-1, 1, -1, 2), 1),), ())
        assert product != tuple(product)
        assert Poch(1, 5) != (1, 5)
        assert IntLit(3) != Product(3, 0, (), ()) and F(1) != product

    def test_hash_is_the_hash_of_the_fields(self):
        for record in RECORDS:
            if record is REPORT:  # its detail dict is unhashable
                continue
            assert hash(record) == hash(tuple(record))
        tree = dsl.parse("f5^6/f1^6 + q*R(q)")
        assert hash(tree) == hash((tree.left, tree.right))


class TestFields:
    def test_assigning_a_field_raises(self):
        for record, field in ((Add(X, Y), "left"), (ThetaSpec(1, 1, 1, 1), "r"),
                              (REPORT, "status"), (SPEC, "exceptions")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
        with pytest.raises(AttributeError):
            Q().other = 1

    def test_a_record_without_fields_is_true(self):
        assert bool(Q()) and len(Q()) == 0

    def test_wrong_field_count_is_a_type_error(self):
        with pytest.raises(TypeError):
            Add(X)
        with pytest.raises(TypeError):
            Q(1)

    def test_checks_keep_their_messages(self):
        with pytest.raises(ValueError, match="dilation factor must be >= 1"):
            Dilate(X, 0)
        with pytest.raises(ValueError, match="0 <= j < t"):
            Dissect(X, 5, 5)
        with pytest.raises(ValueError, match="theta signs"):
            ThetaSpec(2, 1, 1, 1)
        with pytest.raises(ValueError, match="color counts"):
            PartConstraint(5, {1: -1})
        # the records raise the messages the parser reports
        for build, error, message in (
            (lambda: F(0), ValueError, "f0 is not defined"),
            (lambda: Poch(0, 5), ValueError, r"poch\(a,m\) needs a >= 1 and m >= 1"),
            (lambda: PochFin(1, 1, -1), ValueError, r"pochfin\(a,m,n\) needs .* n >= 0"),
            (lambda: Fun("phi", False, 0), ValueError, "dilation exponent must be >= 1"),
            (lambda: Fun("zeta", False, 1), ValueError, "unknown function 'zeta'"),
            (lambda: IdentityRecord("x", X, Y, modulus=1), InvalidModulus, "modulus 1"),
            (lambda: IdentityRecord("x", X, Y, modulus=0), InvalidModulus, "modulus 0"),
            (lambda: IdentityRecord("x", X, Y, modulus=True), InvalidModulus, "modulus True"),
        ):
            with pytest.raises(error, match=message):
                build()


class TestRoundTrips:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_pickle_and_deepcopy_round_trip(self, record):
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                     copy.copy(record)):
            assert type(twin) is type(record)
            assert twin == record
            assert [getattr(twin, f) for f in twin._fields] == \
                [getattr(record, f) for f in record._fields]

    def test_scan_spec_exceptions_stay_sorted(self):
        spec = pickle.loads(pickle.dumps(SPEC))
        assert spec.exceptions == (3, 8)

    def test_part_constraint_keeps_its_table(self):
        constraint = copy.deepcopy(PartConstraint(5, {1: 2, 4: 1}))
        assert constraint.allowed == (0, 2, 0, 0, 1)
        assert constraint.colors_of(6) == 2


class TestConstruction:
    def test_scan_spec_keywords_and_defaults(self):
        spec = ScanSpec(name="x", target="A", period=5, residue=1, sign="+")
        assert (spec.divisor, spec.exceptions, spec.max_n) == (None, (), 2000)
        assert spec == ScanSpec("x", "A", 5, 1, "+")

    def test_identity_record_defaults(self):
        rec = IdentityRecord(name="n", lhs=X, rhs=Y)
        assert (rec.modulus, rec.anchor, rec.is_congruence) == (None, "", False)
        assert IdentityRecord("n", X, Y, modulus=4).is_congruence

    def test_verification_report_defaults(self):
        a = VerificationReport(name="v", status="pass", certified_order=7)
        b = VerificationReport("v", "pass", 7)
        assert (a.first_violation, a.elapsed, a.detail) == (None, 0.0, {})
        assert a == b and a.detail is not b.detail

    def test_repr_names_every_field(self):
        assert repr(Add(X, Y)) == "Add(left=Q(), right=IntLit(value=2))"
        assert repr(PartConstraint(2, {1: 1})) == "PartConstraint(modulus=2, allowed=(0, 1))"
        assert repr(Product(0, 0, (), ())) == "Product(c=0, k=0, thetas=(), pochs=())"


def test_import_and_manifest_load_need_no_heavy_module():
    """Set-up imports nothing of dataclasses, json, decimal, typing or
    importlib.resources; a clean interpreter (-S: no site hooks) shows it."""
    guarded = ["dataclasses", "inspect", "json", "decimal", "typing", "importlib.resources"]
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import rrseries\n"
        "from rrseries import dsl, verify\n"
        "assert rrseries.__file__.startswith(sys.path[0])\n"
        "assert len(dsl.load_manifest(verify.default_manifest_path())) > 0\n"
        f"print(sorted((set(sys.modules) - before) & set({guarded!r})))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
