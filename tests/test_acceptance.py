"""Acceptance gate: the full verification contract, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure).  Exact integer comparisons throughout; the stated index
bounds and orders are pinned here, not configurable.
"""

import random
import time

import pytest
from partition_oracles import enumerate_partitions

from rrseries import catalog, dsl, partitions, qfunctions, verify
from rrseries.catalog import f_mrs, linking_relations, named_series
from rrseries.qfunctions import ThetaSpec, euler_f, pochhammer_inf, theta_general, theta_product
from rrseries.series import Series

SCAN_LIMIT = 2000


def announce(number, label, ok):
    print(f"ACCEPTANCE {number}: {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {label}"


# --- 1: identity manifest ---------------------------------------------------

REQUIRED_RECORDS = {
    # triple product and theta machinery
    "jtpi-q-q2", "jtpi-neg-q-q2", "phi-product", "psi-product",
    # 2-dissections
    "f1-pow4-2dis", "inv-f1-pow2-2dis", "inv-f1-pow4-2dis",
    "f1-by-f5-2dis", "f5-by-f1-2dis",
    # 3- and 5-dissections
    "phi-3dis", "psi-3dis", "f1-5dis", "inv-f1-5dis",
    # quartic lemmas and the quintic modular equation
    "gugg-numerator", "gugg-denominator", "ramanujan-quintic",
    "nd-product", "n-over-d", "quintic-reciprocal-diff", "quintic-diff-2-5",
    "x3y-sum", "x2-over-y-sum", "xy2-sum",
    # extraction identities
    "a-5n1-extract", "a-5n2-extract", "a-5n3-extract", "a-5n4-extract",
    "b-5n1-extract", "b-5n2-extract", "b-5n3-extract", "b-5n4-extract",
    "c-5n0-extract", "c-5n1-extract", "c-5n2-extract", "c-5n3-extract",
    "c-5n4-extract", "d-5n0-extract", "d-5n2-extract", "d-5n3-extract",
    "d-5n4-extract", "b25-5n-extract", "fcolored-5n-extract",
    # congruence chains
    "cube-mod3", "ab-diff-mod3", "ab-sum-mod3", "ab-sum-mod3-final",
    "2a-mod3", "gugg-cube", "f1f5-theta", "f1f5-3dis",
    "ab-diff-mod8", "ab-sum-mod8", "a16n13-sum-mod4", "a16n13-factored-mod4",
    "f1f5-mod2",
}

FULL_ORDER_RECORDS = ("ramanujan-quintic", "quintic-reciprocal-diff")


def test_criterion_1_identity_manifest():
    records = dsl.load_manifest(verify.default_manifest_path())
    names = {r.name for r in records}
    missing = REQUIRED_RECORDS - names
    assert not missing, f"manifest is missing required records: {sorted(missing)}"
    assert len(records) >= 40

    start = time.perf_counter()
    reports = []
    for record in records:
        reports.append(verify.verify_identity(record, 500))
    elapsed = time.perf_counter() - start

    failures = [r.name for r in reports if r.status != "pass"]
    under_certified = [r.name for r in reports if r.certified_order < 300]
    by_name = {r.name: r for r in reports}
    full_order_ok = all(
        by_name[name].certified_order >= 500 for name in FULL_ORDER_RECORDS
    )
    ok = (not failures and not under_certified and full_order_ok
          and elapsed < 120.0)
    announce(1, f"{len(reports)} identity records at order >= 300 "
                f"(quintic pair at >= 500) in {elapsed:.1f}s", ok)


# --- 2: sign patterns of the four families ----------------------------------

SIGN_TABLE = {
    "A": {1: "+", 2: "+", 3: "+", 4: "-"},
    "B": {1: "-", 2: "+", 3: "-", 4: "+"},
    "C": {0: "-", 1: "-", 2: "+", 3: "-", 4: "+"},
    "D": {0: "-", 2: "+", 3: "+", 4: "-"},
}


def test_criterion_2_sign_theorems():
    ok = True
    for tag, classes in SIGN_TABLE.items():
        series = named_series(tag, SCAN_LIMIT)
        for residue, sign in classes.items():
            for n in range(residue, SCAN_LIMIT, 5):
                value = series[n]
                if n == 0 and tag in ("C", "D"):
                    ok = ok and value == 1  # the single stated exception
                    continue
                ok = ok and (value > 0 if sign == "+" else value < 0)
    announce(2, f"sign patterns of A, B, C, D below {SCAN_LIMIT} "
                "with exactly C(0)=D(0)=1 excepted", ok)


# --- 3: degree-one sign patterns ---------------------------------------------

def test_criterion_3_degree_one_patterns():
    c = named_series("c", SCAN_LIMIT)
    d = named_series("d", SCAN_LIMIT)
    c_signs = {0: "+", 1: "+", 2: "-", 3: "-", 4: "-"}
    d_signs = {0: "+", 1: "-", 2: "+", 3: "-", 4: "-"}
    c_exceptions = {2, 4, 9}
    d_exceptions = {3, 8, 13, 23}

    ok = all(c[n] == 0 for n in c_exceptions)
    ok = ok and all(d[n] == 0 for n in d_exceptions)
    for series, signs, exceptions in ((c, c_signs, c_exceptions),
                                      (d, d_signs, d_exceptions)):
        for n in range(SCAN_LIMIT):
            if n in exceptions:
                continue
            sign = signs[n % 5]
            ok = ok and (series[n] > 0 if sign == "+" else series[n] < 0)
    # exactness: no other zero could hide in an exception list
    ok = ok and sum(1 for n in range(SCAN_LIMIT) if c[n] == 0) == len(c_exceptions)
    ok = ok and sum(1 for n in range(SCAN_LIMIT) if d[n] == 0) == len(d_exceptions)
    announce(3, f"degree-one sign patterns below {SCAN_LIMIT} with "
                "exception sets {2,4,9} and {3,8,13,23} exactly", ok)


# --- 4: congruence families ---------------------------------------------------

CONGRUENCES = [
    ("A", 9, (4,), 3), ("B", 9, (2,), 3),
    ("A", 16, (13,), 4), ("B", 16, (11,), 4),
    ("A", 15, (4, 8, 13, 14), 15), ("B", 15, (2, 6, 11, 12), 15),
    ("C", 15, (3, 13), 30), ("D", 15, (7, 12), 30),
]


def test_criterion_4_congruence_families():
    ok = True
    checked = 0
    for tag, period, residues, modulus in CONGRUENCES:
        series = named_series(tag, SCAN_LIMIT)
        for residue in residues:
            for n in range(residue, SCAN_LIMIT, period):
                ok = ok and series[n] % modulus == 0
                checked += 1
    announce(4, f"eight congruence families ({checked} indices below "
                f"{SCAN_LIMIT}, moduli 3/4/15/30)", ok)


# The same eight families far past SCAN_LIMIT: A, B, C and D are built
# exactly to MOD_SCAN_LIMIT and reduced (1.7 to 3.3 s on a 2-vCPU host).
MOD_SCAN_LIMIT = 12000


def test_criterion_4_congruence_families_mod_m():
    reports = []
    for tag, period, residues, modulus in CONGRUENCES:
        for residue in residues:
            spec = verify.ScanSpec(name=f"{tag}({period}n+{residue})", target=tag,
                                   period=period, residue=residue, divisor=modulus,
                                   max_n=MOD_SCAN_LIMIT)
            reports.append(verify.scan(spec))
    ok = all(r.status == "pass" and r.certified_order == MOD_SCAN_LIMIT for r in reports)
    announce(4, f"eight congruence families, exact and reduced ({len(reports)} progressions "
                f"below {MOD_SCAN_LIMIT})", ok)


# --- 5: oracle equivalence -----------------------------------------------------

def test_criterion_5_oracle_equivalence():
    limit = 300
    ok = True

    b25 = named_series("b25", limit + 1)
    ok = ok and list(b25.coeffs) == partitions.counts(partitions.B25, limit)

    fc = named_series("Fcolored", limit + 1)
    ok = ok and list(fc.coeffs) == partitions.counts(partitions.F_TWO_COLOR, limit)

    alpha_series = dsl.evaluate(dsl.parse("1/(poch(1,5)^5*poch(4,5)^5)"), limit + 1)
    ok = ok and list(alpha_series.coeffs) == partitions.counts(
        partitions.PM1_MOD5, limit, tuple_length=5)

    beta_series = dsl.evaluate(dsl.parse("1/(poch(2,5)^5*poch(3,5)^5)"), limit + 1)
    ok = ok and list(beta_series.coeffs) == partitions.counts(
        partitions.PM2_MOD5, limit, tuple_length=5)

    bound = 1000
    a = named_series("A", bound)
    b25_long = named_series("b25", bound)
    fc_long = named_series("Fcolored", bound)
    for n in range(bound):
        if 5 * n + 2 < bound:
            ok = ok and a[5 * n + 2] == 10 * b25_long[5 * n]
        if 5 * n + 3 < bound:
            ok = ok and a[5 * n + 3] == 5 * fc_long[5 * n]

    d = named_series("D", 14)
    ok = ok and (d[3], d[8], d[13]) == (5, 25, 155)
    announce(5, "partition-oracle equivalences (b25, F, alpha, beta to 300; "
                "A-links below 1000; D spot values)", ok)


# --- 6: linking relations -------------------------------------------------------

def test_criterion_6_linking_relations():
    reports = linking_relations(SCAN_LIMIT)
    ok = len(reports) == 7 and all(r.status == "pass" for r in reports)
    announce(6, f"seven linking relations below {SCAN_LIMIT}", ok)


# --- 7: tuple-count inequality ---------------------------------------------------

def test_criterion_7_alpha_beta_inequality():
    limit = 500
    alpha = partitions.counts(partitions.PM1_MOD5, limit, tuple_length=5)
    beta = partitions.counts(partitions.PM2_MOD5, limit, tuple_length=5)
    ok = all(alpha[n] >= 5 * beta[n - 1] for n in range(3, limit + 1))
    announce(7, "alpha(n) >= 5*beta(n-1) for 3 <= n <= 500", ok)


# --- 8: conjecture scans (report-only) --------------------------------------------

def test_criterion_8_conjecture_scans():
    reports = [verify.scan(spec, report_only=True)
               for spec in verify._scan_specs(verify.CONJECTURED_SIGNS,
                                              verify.CONJECTURED_CONGRUENCES, SCAN_LIMIT,
                                              conjecture=True)]
    ok = (len(reports) == 9
          and all(r.status == "report-only-pass" for r in reports))
    announce(8, f"nine conjecture scans below {SCAN_LIMIT} report-only-pass", ok)


# --- 9: property suites ------------------------------------------------------------

def test_criterion_9_property_suites():
    rng = random.Random(20250810)
    ok = True

    def rand_series(unit=False):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 32))]
        if unit:
            coeffs[0] = rng.choice([1, -1])
        return Series(coeffs)

    # ring laws
    for _ in range(40):
        a, b, c = rand_series(), rand_series(), rand_series()
        n = min(a.order, b.order, c.order)
        ok = ok and a * b == b * a
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and (a * (b + c)).truncate(n) == (a * b + a * c).truncate(n)

    # inversion round trip
    for _ in range(40):
        s = rand_series(unit=True)
        ok = ok and s * s.invert() == Series.one(s.order)

    # dissection reassembly for t in {2, 3, 5}
    for t in (2, 3, 5):
        for _ in range(20):
            s = rand_series()
            if s.order <= t:
                continue
            total = None
            for j in range(t):
                piece = Series((0,) * j + s.dissect(t, j).dilate(t).coeffs)
                total = piece if total is None else total + piece
            ok = ok and total == s.truncate(total.order)

    # triple product vs bilateral sum for all monomial specs with r+s <= 6
    for r in range(0, 7):
        for s in range(0, 7 - r):
            if r + s < 1:
                continue
            for sa in (1, -1):
                for sb in (1, -1):
                    spec = ThetaSpec(sa, r, sb, s)
                    ok = ok and theta_general(spec, 200) == theta_product(spec, 200)

    # pentagonal fast path vs naive binomial product
    ok = ok and euler_f(1, 400) == pochhammer_inf(1, 1, 400)

    # DP vs exhaustive enumeration
    for constraint in (partitions.B25, partitions.F_TWO_COLOR,
                       partitions.PM1_MOD5, partitions.PM2_MOD5):
        for n in range(11):
            ok = ok and partitions.counts(constraint, n)[n] == len(
                enumerate_partitions(n, constraint))

    announce(9, "property suites (ring laws, inversion, reassembly, "
                "triple product sweep at 200, pentagonal path, DP vs "
                "enumeration)", ok)


# --- 10: empirical sign periodicity --------------------------------------------------

def test_criterion_10_sign_periodicity():
    ok = True
    prefixes = {}
    for m, r in ((7, 1), (11, 2), (13, 3)):
        series = f_mrs(m, 2 * r, r, SCAN_LIMIT)
        report = verify.period_check(series, m, prefix=SCAN_LIMIT // 2,
                                     name=f"F({m},{2*r},{r})")
        ok = ok and report.status == "pass"
        prefixes[f"F({m},{2*r},{r})"] = report.detail["minimal_prefix"]
    announce(10, f"sign periodicity below {SCAN_LIMIT} with minimal prefixes "
                 f"{prefixes}", ok)
