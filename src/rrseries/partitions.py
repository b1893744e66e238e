"""Combinatorial partition counting, independent of the series engine.

Counts (colored) partitions whose parts are restricted by residue class,
by dynamic programming over the allowed colored parts.  Ordered
k-tuples of constrained partitions reduce to the colored count with the
color multiplicities scaled by k.  The brute-force enumerator that
checks the DP at small n lives with the tests
(``tests/partition_oracles.py``).

Used to cross-validate series coefficients (25-regular partitions
against f_25/f_1, the two-color count against f_25 R(q^5)/f_1, and the
five-tuple counts behind the alpha/beta inequality).
"""

import time

from ._record import Record
from .report import make_report


class PartConstraint(Record):
    """Parts p with p mod modulus = r come in allowed[r] colors (0 = forbidden).

    Built from a mapping {residue: colors}; ``allowed`` is the full table.
    """

    __slots__ = ()
    _fields = ("modulus", "allowed")

    def __new__(cls, modulus, allowed):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        table = [0] * modulus
        for residue, colors in dict(allowed).items():
            if colors < 0:
                raise ValueError("color counts must be >= 0")
            table[residue % modulus] = colors
        return Record.__new__(cls, modulus, tuple(table))

    def __getnewargs__(self):
        return self.modulus, dict(enumerate(self.allowed))

    def colors_of(self, part):
        return self.allowed[part % self.modulus]


B25 = PartConstraint(25, {r: 1 for r in range(1, 25)})
F_TWO_COLOR = PartConstraint(
    25,
    {r: (2 if r in (10, 15) else 1) for r in range(1, 25) if r not in (5, 20)},
)
PM1_MOD5 = PartConstraint(5, {1: 1, 4: 1})
PM2_MOD5 = PartConstraint(5, {2: 1, 3: 1})


def counts(constraint, limit, tuple_length=1):
    """Counts for 0..limit of ``tuple_length``-tuples of constrained partitions.

    An ordered k-tuple is a single colored partition with every color
    count multiplied by k, so one DP covers both cases.  Each colored
    part is an independent item with unbounded multiplicity.
    """
    if limit < 0 or tuple_length < 1:
        raise ValueError("need limit >= 0 and tuple_length >= 1")
    dp = [1] + [0] * limit
    for part in range(1, limit + 1):
        k = constraint.colors_of(part) * tuple_length
        for _ in range(k):
            for total in range(part, limit + 1):
                dp[total] += dp[total - part]
    return dp


def check_alpha_beta(limit):
    """Verify the five-tuple inequalities linking the two residue families.

    alpha(n) counts partition 5-tuples with parts = +-1 (mod 5), beta(n)
    the same with parts = +-2 (mod 5).  Checks alpha(n) >= 5*beta(n-1)
    and the weaker alpha(n) > 3*beta(n-1) for 3 <= n <= limit, plus
    beta(n) != 0 for 2 <= n <= limit.
    """
    if limit < 3:
        raise ValueError("limit must be >= 3")
    start = time.perf_counter()
    alpha = counts(PM1_MOD5, limit, tuple_length=5)
    beta = counts(PM2_MOD5, limit, tuple_length=5)
    violation = None
    for n in range(2, limit + 1):
        if beta[n] == 0:
            violation = (n, 0)
            break
        if n >= 3 and not (alpha[n] >= 5 * beta[n - 1] and alpha[n] > 3 * beta[n - 1]):
            violation = (n, alpha[n] - 5 * beta[n - 1])
            break
    return make_report(f"alpha(n) >= 5*beta(n-1) for 3 <= n <= {limit}", violation,
                       limit + 1, start)
