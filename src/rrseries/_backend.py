"""The series kernels, at the names every caller looks them up by.

The kernels are those of ``_kernels_py``.  Dense: Kronecker-substitution
multiplication above a small size cutoff and the schoolbook loop below
it; inversion by the recurrence over the denominator's nonzero terms,
with Newton iteration on top for a denominator of many terms, a
quarter or more of its coefficients, whose inverse grows slowly; and
the sparse binomial update used by finite Pochhammer products.
Sparse, for a series 1 + sum c*q^j given by its few nonzero terms (a
theta function): ``sparse_power`` by Miller's recurrence,
``sparse_mul`` and ``sparse_div``, each O(n * nnz).  The
evaluator raises one theta base of a product by ``sparse_power`` and
folds the others in by ``sparse_mul`` and ``sparse_div``; sums, unpaired
Pochhammer symbols and everything else not a theta quotient use the
dense kernels.

Callers call ``_backend.mul_trunc`` (not the defining module) so a
profiler can replace a kernel for every caller in one place; products
made inside an inversion call ``_kernels_py`` directly and are not seen
there.
"""

from ._kernels_py import (  # noqa: F401
    binomial_update,
    invert_trunc,
    mul_trunc,
    sparse_div,
    sparse_mul,
    sparse_power,
)
