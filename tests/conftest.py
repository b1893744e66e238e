"""Fixtures shared by the test modules."""

import pytest

from rrseries import _backend


@pytest.fixture
def count_kernel_calls(monkeypatch):
    """A function that starts recording the name of every ``_backend`` kernel
    call, to the end of the test, and returns the list it records into."""

    def start():
        calls = []
        for name in ("mul_trunc", "invert_trunc", "binomial_update",
                     "sparse_power", "sparse_mul", "sparse_div"):
            kernel = getattr(_backend, name)

            def counted(*args, _name=name, _kernel=kernel, **kwargs):
                calls.append(_name)
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(_backend, name, counted)
        return calls

    return start
