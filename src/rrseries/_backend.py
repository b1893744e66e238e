"""The series kernels, at the names every caller looks them up by.

The kernels are those of ``_kernels_py``: Kronecker-substitution
multiplication and Newton inversion above small size cutoffs, the
schoolbook loops below them, and the sparse binomial update used by
finite Pochhammer products.  Callers call ``_backend.mul_trunc`` (not
the defining module) so a profiler can replace a kernel for every caller
in one place; products made inside an inversion call ``_kernels_py``
directly and are not seen there.  ``balanced`` reduces a coefficient
list to balanced residues, as ``invert_trunc`` does with a modulus.
"""

from ._kernels_py import balanced, binomial_update, invert_trunc, mul_trunc  # noqa: F401
