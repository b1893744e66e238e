"""Partition counting: DP against brute-force enumeration and known values."""

import pytest
from partition_oracles import count_tuples_naive, enumerate_partitions

from rrseries.partitions import (
    B25,
    F_TWO_COLOR,
    PM1_MOD5,
    PM2_MOD5,
    PartConstraint,
    check_alpha_beta,
    counts,
)

ALL_CONSTRAINTS = [B25, F_TWO_COLOR, PM1_MOD5, PM2_MOD5]


class TestCount:
    def test_empty_partition(self):
        for c in ALL_CONSTRAINTS:
            assert counts(c, 0)[0] == 1

    def test_unrestricted_prefix(self):
        # below 25 the 25-regular counts are the ordinary partition numbers
        assert counts(B25, 9) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]

    def test_forbidden_residues(self):
        assert F_TWO_COLOR.colors_of(5) == 0
        assert F_TWO_COLOR.colors_of(20) == 0
        assert F_TWO_COLOR.colors_of(25) == 0
        assert F_TWO_COLOR.colors_of(10) == 2
        assert F_TWO_COLOR.colors_of(15) == 2
        assert F_TWO_COLOR.colors_of(35) == 2

    def test_two_color_small_values(self):
        # n=1..4: single one-color parts only, one partition each way
        assert counts(F_TWO_COLOR, 4) == [1, 1, 2, 3, 5]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            counts(B25, -1)
        for tuple_length in (0, -1):
            with pytest.raises(ValueError):
                counts(PM1_MOD5, 5, tuple_length=tuple_length)

    def test_invalid_constraint(self):
        with pytest.raises(ValueError):
            PartConstraint(0, {})
        with pytest.raises(ValueError):
            PartConstraint(5, {1: -1})


class TestDpVsEnumeration:
    @pytest.mark.parametrize("constraint", ALL_CONSTRAINTS)
    def test_counts_match_enumeration(self, constraint):
        for n in range(11):
            assert counts(constraint, n)[n] == len(enumerate_partitions(n, constraint))

    def test_enumeration_has_no_duplicates(self):
        for n in range(9):
            listed = enumerate_partitions(n, F_TWO_COLOR)
            assert len(listed) == len(set(listed))

    @pytest.mark.parametrize("constraint", [PM1_MOD5, PM2_MOD5])
    def test_tuple_counts_match_enumeration(self, constraint):
        for n in range(9):
            assert counts(constraint, n, 5)[n] == count_tuples_naive(n, constraint, 5)

    def test_tuple_count_is_colored_count(self):
        scaled = PartConstraint(5, {1: 5, 4: 5})
        for n in range(12):
            assert counts(PM1_MOD5, n, 5)[n] == counts(scaled, n)[n]


class TestAlphaBeta:
    def test_alpha_one(self):
        # a single part 1 in one of the five tuple slots
        assert counts(PM1_MOD5, 1, 5)[1] == 5

    def test_beta_one_and_two(self):
        assert counts(PM2_MOD5, 1, 5)[1] == 0
        assert counts(PM2_MOD5, 2, 5)[2] == 5

    def test_alpha_beta_by_enumeration(self):
        alpha3 = count_tuples_naive(3, PM1_MOD5, 5)
        beta2 = count_tuples_naive(2, PM2_MOD5, 5)
        assert counts(PM1_MOD5, 3, 5)[3] == alpha3
        assert alpha3 >= 5 * beta2

    def test_inequality_holds(self):
        report = check_alpha_beta(80)
        assert report.status == "pass"
        assert report.first_violation is None

    def test_limit_bound(self):
        with pytest.raises(ValueError):
            check_alpha_beta(2)

    def test_beta_nonzero_from_two(self):
        beta = counts(PM2_MOD5, 60, tuple_length=5)
        assert beta[1] == 0
        assert all(beta[n] != 0 for n in range(2, 61))
