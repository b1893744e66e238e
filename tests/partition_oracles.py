"""Brute-force partition oracles for the DP of ``rrseries.partitions``.

Both enumerate explicitly and are exponential in ``n``, so they check
``partitions.counts`` at small ``n`` only.
"""


def enumerate_partitions(n, constraint):
    """All constrained colored partitions of n, by explicit recursion.

    A partition is a tuple of (part, color) pairs, nonincreasing, with
    color indices below the part's color count.
    """
    results = []

    def descend(remaining, max_item, chosen):
        if remaining == 0:
            results.append(tuple(chosen))
            return
        for part in range(min(remaining, max_item[0]), 0, -1):
            ncolors = constraint.colors_of(part)
            if not ncolors:
                continue
            top_color = ncolors - 1 if part < max_item[0] else max_item[1]
            for color in range(top_color, -1, -1):
                chosen.append((part, color))
                descend(remaining - part, (part, color), chosen)
                chosen.pop()

    descend(n, (n, constraint.colors_of(n) - 1 if n else 0), [])
    return results


def count_tuples_naive(n, constraint, k):
    """Ordered k-tuples by explicit enumeration of the component sums."""
    per_n = [len(enumerate_partitions(i, constraint)) for i in range(n + 1)]

    def ways(remaining, slots):
        if slots == 1:
            return per_n[remaining]
        return sum(
            per_n[first] * ways(remaining - first, slots - 1)
            for first in range(remaining + 1)
        )

    return ways(n, k)
