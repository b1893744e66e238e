"""tools/unreached.py: functions of which no line runs, from the call events."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "unreached.py")

TOY = '''import functools


def reached():
    return inner()


def inner():
    def nested():
        return 1
    return 2


@functools.lru_cache
def decorated_unreached():
    return 3


class K:
    def method(self):
        return 4

    @staticmethod
    def static():
        return 5


def unreached():
    return 6


VALUE = K.static()
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("unreached", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_lists_every_function_with_its_first_line():
    tool = load_tool()
    assert tool.functions(TOY) == [
        ("reached", 4), ("inner", 8), ("inner.<locals>.nested", 9),
        ("decorated_unreached", 14), ("K.method", 20), ("K.static", 23),
        ("unreached", 28),
    ]


def test_lists_the_functions_no_call_entered(tmp_path):
    tool = load_tool()
    (tmp_path / "toy.py").write_text(TOY)
    spec = importlib.util.spec_from_file_location("toy", tmp_path / "toy.py")
    toy = importlib.util.module_from_spec(spec)
    recorder = tool.CallRecorder()
    recorder.on()
    try:
        # import-time calls count: K.static runs as the module is executed
        spec.loader.exec_module(toy)
        toy.reached()
    finally:
        recorder.off()
    assert tool.unreached(str(tmp_path), recorder.entered) == [
        ("toy.inner.<locals>.nested", 9), ("toy.decorated_unreached", 14),
        ("toy.K.method", 20), ("toy.unreached", 28),
    ]
