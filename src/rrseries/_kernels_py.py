"""Pure-Python series kernels.

These are the reference implementations of the three hot loops: truncated
Cauchy multiplication, truncated inversion, and the in-place sparse
binomial update used to accumulate Pochhammer products.  Callers reach
them through ``_backend``.  All coefficients are Python ints, so the
kernels are exact at any size.
"""


def mul_trunc(a, b, n):
    """First ``n`` coefficients of the Cauchy product of lists ``a`` and ``b``."""
    out = [0] * n
    for i in range(min(len(a), n)):
        ai = a[i]
        if not ai:
            continue
        jmax = min(len(b), n - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def invert_trunc(a, n):
    """First ``n`` coefficients of 1/a.

    Requires ``a[0]`` in {+1, -1}; the caller checks.  Uses the standard
    recurrence b[k] = -a[0] * sum_{i>=1} a[i] b[k-i] (note 1/a[0] = a[0]).
    """
    a0 = a[0]
    out = [0] * n
    out[0] = a0
    alen = len(a)
    for k in range(1, n):
        acc = 0
        for i in range(1, k + 1 if k < alen else alen):
            ai = a[i]
            if ai:
                acc += ai * out[k - i]
        out[k] = -a0 * acc
    return out


def binomial_update(c, e, coef, n):
    """In place: multiply list ``c`` by the binomial (1 + coef*q^e), truncated to ``n``.

    Descending index order so each c[i-e] read is the pre-update value.
    An exponent of 0 degenerates to scaling by (1 + coef).
    """
    if e == 0:
        s = 1 + coef
        for i in range(n):
            c[i] *= s
        return
    for i in range(n - 1, e - 1, -1):
        lo = c[i - e]
        if lo:
            c[i] += coef * lo
