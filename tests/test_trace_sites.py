"""Every site the benchmark's tracer wraps exists under the name it uses.

``perfbench/tracing.py`` replaces functions at the names their callers
look them up by (``_backend.mul_trunc``, ``catalog.euler_f``, ...).  A
refactor that drops or renames one of them fails here, not only in a
traced benchmark run.
"""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def test_every_traced_site_is_wrapped_and_restored():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [(owner, attr) for pairs in tracing.TRACED.values() for owner, attr in pairs]
    originals = [owner.__dict__[attr] for owner, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(sites, originals):
            assert owner.__dict__[attr].__wrapped__ is original, (owner, attr)
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(sites, originals):
        assert owner.__dict__[attr] is original, (owner, attr)
