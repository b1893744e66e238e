"""The series kernels, pure Python, at the names every caller looks them up by.

Dense kernels: truncated multiplication, truncated inversion, and the
in-place binomial update used by finite Pochhammer products.  Sparse
kernels: a power, a product and a quotient by a series given by its few
nonzero terms, such as a theta function f(+-q^r, +-q^s), which has about
2*sqrt(2N/(r+s)) nonzero terms below q^N.  All coefficients are Python
ints, so the kernels are exact at any size.

- ``mul_trunc`` uses Kronecker substitution at every size: both operands
  are packed into one integer each, with one fixed-width slot per
  coefficient, and CPython's Karatsuba multiplication forms the whole
  product at once.
- ``invert_trunc`` runs the recurrence of ``sparse_div`` (below) over
  the denominator's nonzero terms, to the end when :func:`unit_terms`
  finds them few: fewer than ``INV_CUTOFF``, or filling less than
  ``INV_DENSITY`` of the ``n`` coefficients, so its cost is O(n * nnz).
  A denominator with more terms gets Newton iteration, doubling the
  precision each step, on top of the recurrence for orders up to
  ``INV_CUTOFF``.  When that base case shows the coefficients growing by
  ``STEEP_BITS`` or more bits per term, the recurrence runs to the end:
  Newton would multiply two wide series where the recurrence multiplies
  a narrow one by a wide one.
- ``binomial_update`` adds coef times the shifted list to itself in
  place, with one slice assignment.

The same rule routes ``Series.__pow__``: a unit series with few nonzero
terms is raised to |k| >= 2 by ``sparse_power``, any other power by
repeated squaring.  The cutoffs are crossover points measured on 64-bit
CPython 3.11 with coefficients of 1 to 200 bits.

The sparse kernels take a series P = 1 + sum c*q^j as its ``terms``, the
pairs (j, c) with j >= 1 in increasing order, and cost O(n * nnz):

- ``sparse_power`` raises P to an integer power alpha by J.C.P. Miller's
  recurrence n*Y[n] = sum_j ((alpha+1)*j - n) * c_j * Y[n-j] (Knuth,
  TAOCP vol. 2, section 4.7), exactly: the division by n is exact only
  over the integers.
- ``sparse_mul`` adds one shifted copy of the operand per term, each as
  one slice operation, so no loop runs per coefficient in Python.
- ``sparse_div`` runs the recurrence Y[n] = A[n] - sum_j c_j * Y[n-j].

The two recurrences run in blocks of ``SPARSE_BLOCK`` coefficients: the
terms reaching back before a block are added to the whole block by slice
operations, so only the terms with j below the block size are summed one
coefficient at a time.

Callers call ``_backend.mul_trunc`` and the others through this module,
so a profiler can replace a kernel for every caller in one place; the
products made inside an inversion call ``_mul`` and are not seen there.
"""

import itertools
from operator import add, mul, sub

# Order up to which, and number of nonzero terms below which, the
# recurrence beats Newton iteration.  At order 2000 on a 2-vCPU host with
# CPython 3.11, 1/dissect(f1^3,2,0) (45 nonzero terms) takes 22 ms by the
# recurrence against 0.9 s by Newton.
INV_CUTOFF = 64

# Share of the coefficients that are nonzero below which the recurrence
# runs to the end at any order.  On a 2-vCPU host with CPython 3.11,
# 1/(f1+q) (87 nonzero terms below q^3000) takes 32 ms by the recurrence
# against 0.55 s by Newton, and 1/(f1*f25+q) (685 terms) 0.19 against
# 0.83 s; the densest loss measured below the cutoff, 1/(f1*f5+q) at
# order 1000 (244 terms), takes 18 against 16 ms.
INV_DENSITY = 0.25

# Block length of the sparse recurrences.  At order 3000 on 2 vCPUs with
# CPython 3.11, f(-q,-q^4)^-5 takes 69, 44, 37 and 36 ms with blocks of
# 32, 64, 128 and 256, and one division by f(-q^2,-q^3) 26, 21, 20 and
# 21 ms; without blocks the power takes 47 ms.
SPARSE_BLOCK = 128

# Growth of the inverse, in bits per term, from which the recurrence beats
# Newton iteration at every order.  At order 2000 on a 2-vCPU host with
# CPython 3.11, the dense 1/(1 - 4q/(1-q)) (2.32 bits per term) takes
# 0.57 s by the recurrence against 2.0 s by Newton, while 1/f1^24 (1.2 bits
# per term near the base, sublinear beyond) takes 0.6 s by the recurrence
# against 0.45 s by Newton.
STEEP_BITS = 2


def _bits(coeffs):
    return max(max(coeffs, default=0), -min(coeffs, default=0)).bit_length()


def _pack(coeffs, width, half):
    """sum coeffs[i] * 2^(8*width*i); each |coeff| < half = 2^(8*width - 1).

    Each slot holds coeff + half, which is nonnegative, and the sum of the
    halves is subtracted again.
    """
    # each bytes object is dropped as soon as its integer is built
    packed = int.from_bytes(
        b"".join([(c + half).to_bytes(width, "little") for c in coeffs]), "little")
    return packed - int.from_bytes((bytes(width - 1) + b"\x80") * len(coeffs), "little")


def mul_trunc(a, b, n):
    """First ``n`` coefficients of the Cauchy product of lists ``a`` and ``b``,
    by Kronecker substitution."""
    a, b = a[:n], b[:n]
    abits, bbits = _bits(a), _bits(b)
    if not abits or not bbits:
        return [0] * n
    la, lb = len(a), len(b)
    # each product coefficient is a sum of min(la, lb) terms below
    # 2^(abits + bbits), so it fits a slot with one bit to spare for its sign
    width = (abits + bbits + min(la, lb).bit_length() + 1 + 7) // 8
    half = 1 << (8 * width - 1)
    packed = _pack(a, width, half)
    # one packed operand for a square lets CPython take its squaring path
    product = packed * (packed if a == b else _pack(b, width, half))
    del packed
    slots = la + lb - 1
    # the product's two's complement bytes, read slot by slot with a
    # borrow, give back the signed coefficients
    raw = product.to_bytes(width * slots + 1, "little", signed=True)
    del product
    full = half << 1
    out = []
    borrow = False
    for i in range(0, width * min(n, slots), width):
        c = int.from_bytes(raw[i:i + width], "little") + borrow
        borrow = c >= half
        out.append(c - full if borrow else c)
    if len(out) < n:
        out += [0] * (n - len(out))
    return out


# Newton's products call this name, so a profiler that replaces mul_trunc
# counts series products only
_mul = mul_trunc


def unit_terms(a, n):
    """(terms, sparse) for a series ``a`` with a[0] = +-1, below q^n.

    ``terms`` are the pairs (i, a[0]*a[i]) for the nonzero a[i], 0 < i < n,
    so a = a[0] * (1 + sum c*q^i over them).  ``sparse`` is true when they
    are fewer than INV_CUTOFF or than INV_DENSITY * n: then the recurrences
    over them beat the dense kernels.
    """
    a0 = a[0]
    terms = [(i, a0 * a[i]) for i in range(1, min(len(a), n)) if a[i]]
    return terms, len(terms) < max(INV_CUTOFF, INV_DENSITY * n)


def invert_trunc(a, n):
    """First ``n`` coefficients of 1/a.

    Requires ``a[0]`` in {+1, -1}; the caller checks.  Then 1/a is the
    sparse quotient of a[0] by the nonzero terms of :func:`unit_terms`,
    the recurrence, which serves a denominator with few of them to the
    end.  Otherwise Newton iteration starts from the recurrence at an
    order up to INV_CUTOFF: if b is 1/a to k terms, then a*b = 1 + q^k*h
    and b - q^k*b*h is 1/a to 2k terms.
    """
    a0 = a[0]
    terms, sparse = unit_terms(a, n)
    if sparse:
        return sparse_div([a0], terms, n)
    precisions = [n]
    while precisions[-1] > INV_CUTOFF:
        precisions.append((precisions[-1] + 1) // 2)
    b = sparse_div([a0], terms, precisions.pop())
    if _grows_steeply(b):
        return sparse_div([a0], terms, n)
    for size in reversed(precisions):
        k = len(b)
        h = _mul(a, b, size)[k:]
        b += [-c for c in _mul(b, h, size - k)]
    return b


def _grows_steeply(b):
    """True if the bits of ``b`` grow by STEEP_BITS or more per term from its
    first half to its second; ``b`` is a base case, so this costs O(1) in n."""
    half = len(b) // 2
    return _bits(b[half:]) - _bits(b[:half]) >= STEEP_BITS * (len(b) - half)


def binomial_update(c, e, coef, n):
    """In place: multiply list ``c`` by the binomial (1 + coef*q^e), truncated to ``n``."""
    c[e:n] = map(add, c[e:n], map(mul, c[:n - e], itertools.repeat(coef)))


def sparse_mul(a, terms, n):
    """First ``n`` coefficients of ``a`` * (1 + sum c*q^j over ``terms``)."""
    a = list(a[:n]) + [0] * (n - len(a))
    out = list(a)
    for j, c in terms:
        if j >= n:
            break
        if c == 1:
            out[j:] = map(add, out[j:], a[:n - j])
        elif c == -1:
            out[j:] = map(sub, out[j:], a[:n - j])
        else:
            out[j:] = map(add, out[j:], map(mul, a[:n - j], itertools.repeat(c)))
    return out


def sparse_div(a, terms, n):
    """First ``n`` coefficients of ``a`` / (1 + sum c*q^j over ``terms``)."""
    out = list(a[:n]) + [0] * (n - len(a))
    near = [(j, c) for j, c in terms if j < SPARSE_BLOCK]
    for start in range(0, n, SPARSE_BLOCK):
        end = min(start + SPARSE_BLOCK, n)
        # terms reaching back before the block, one slice each
        for j, c in terms:
            if j >= end or not start:
                break
            lo, hi = max(start, j), min(end, start + j)
            if c == 1:
                out[lo:hi] = map(sub, out[lo:hi], out[lo - j:hi - j])
            elif c == -1:
                out[lo:hi] = map(add, out[lo:hi], out[lo - j:hi - j])
            else:
                out[lo:hi] = map(sub, out[lo:hi],
                                 map(mul, out[lo - j:hi - j], itertools.repeat(c)))
        # terms inside the block, one coefficient at a time
        for i in range(start, end):
            acc = out[i]
            for j, c in near:
                if j > i - start:
                    break
                acc -= c * out[i - j]
            out[i] = acc
    return out


def sparse_power(terms, alpha, n):
    """First ``n`` coefficients of (1 + sum c*q^j over ``terms``)^``alpha``,
    for any int ``alpha``, by Miller's recurrence."""
    y = [1] + [0] * (n - 1)
    a1 = alpha + 1
    # (j, c, c*(alpha+1)*j): the weight of term j at index i is c*((alpha+1)*j - i)
    near = [(j, c, c * a1 * j) for j, c in terms if j < SPARSE_BLOCK]
    for start in range(0, n, SPARSE_BLOCK):
        end = min(start + SPARSE_BLOCK, n)
        # terms reaching back before the block, one slice each; the weights
        # of one term over consecutive indices form a range
        for j, c in terms:
            if j >= end or not start:
                break
            lo, hi = max(start, j), min(end, start + j)
            w = c * (a1 * j - lo)
            y[lo:hi] = map(add, y[lo:hi], map(mul, range(w, w - c * (hi - lo), -c),
                                               y[lo - j:hi - j]))
        # terms inside the block, one coefficient at a time
        for i in range(max(start, 1), end):
            acc = y[i]
            for j, c, w in near:
                if j > i - start:
                    break
                acc += (w - c * i) * y[i - j]
            y[i] = acc // i
    return y
