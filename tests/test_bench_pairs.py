"""tools/bench_pairs.py: counts it cannot take quartiles of are refused."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")


@pytest.mark.parametrize("argv", [
    ["pairs", "parent", "change", "suite", "1", "1"],
    ["pairs", "parent", "change", "suite", "1", "0", "--seconds", "5"],
    ["cpu", "parent", "change", "1"],
    ["cpu", "parent", "change", "-3"],
])
def test_a_count_below_two_prints_the_usage_and_runs_nothing(monkeypatch, argv):
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    started = []
    monkeypatch.setattr(tool.subprocess, "run", lambda *args, **kwargs: started.append(args))
    with pytest.raises(SystemExit) as info:
        tool.main(argv)
    assert info.value.code == tool.__doc__
    assert started == []
