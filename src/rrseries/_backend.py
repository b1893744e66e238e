"""The series kernels, at the names every caller looks them up by.

The kernels are the pure-Python schoolbook loops of ``_kernels_py``.
Callers call ``_backend.mul_trunc`` (not the defining module) so a
profiler can replace a kernel for every caller in one place.
"""

from ._kernels_py import binomial_update, invert_trunc, mul_trunc  # noqa: F401
