"""List the functions of ``src/rrseries`` of which no line runs in one
benchmark-shaped pass of the program.

The pass is one run of each workload of ``perfbench/workloads.py``
(``suite``, ``deep`` and ``session``, at seed 1) and one run of each CLI
subcommand.  Tracing starts before ``rrseries`` is imported, so code that
runs at import time counts; it pauses while a workload checks its results
against the reference, as perfbench's tracer does, so the checks' oracles
do not count as traffic.  A function counts as reached when it is entered:
``sys.settrace`` sees one call event per frame and traces no lines.

    python3 tools/unreached.py

prints one ``<module>.<qualname>  <line>`` row per unreached function,
sorted by module and line, then their number.  Stdlib only.
"""

import ast
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "rrseries")

CLI_RUNS = (
    ["expand", "R(q)", "-N", "50"],
    ["verify", "-N", "100"],
    ["scan", "--series", "A", "--period", "5", "--residue", "4", "--sign", "neg",
     "--max-n", "200"],
    ["check-congruence", "--series", "A", "--period", "16", "--residue", "13", "--mod", "4",
     "--max-n", "200"],
    ["period-check", "--series", "d", "--period", "5", "--max-n", "200", "--prefix", "50"],
    ["paper-suite", "-N", "100", "--scan-n", "200"],
)


def functions(source):
    """(qualname, first line) of every function in the Python text ``source``,
    methods and nested functions included.  The first line is that of the
    first decorator, as in the code object's ``co_firstlineno``."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((name, first))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def unreached(directory, entered):
    """(module.qualname, line) of every function in the ``.py`` files of
    ``directory`` whose (real path, first line) is not in ``entered``."""
    rows = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(directory, name))
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            rows += [(f"{name[:-3]}.{qualname}", line) for qualname, line in functions(source)
                     if (path, line) not in entered]
    return rows


class CallRecorder:
    """Records the (real path, first line) of every code object entered
    while it is on; ``on`` and ``off`` switch the current thread's tracing."""

    def __init__(self):
        self.entered = set()
        self._codes = set()

    def _trace(self, frame, event, arg):
        self._codes.add(frame.f_code)

    def on(self):
        sys.settrace(self._trace)

    def off(self):
        sys.settrace(None)
        self.entered |= {(os.path.realpath(c.co_filename), c.co_firstlineno)
                         for c in self._codes}
        self._codes.clear()


def exercise(recorder):
    """Import rrseries and run the workloads and CLI subcommands under ``recorder``."""
    sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]
    # paper-suite runs some items in a forked worker when it has two CPUs,
    # and the worker's calls never reach this process's trace: with one CPU
    # every item runs here
    os.sched_getaffinity = lambda pid: {0}
    recorder.on()
    import workloads
    from rrseries import cli
    recorder.off()

    for name in ("suite", "deep", "session"):
        recorder.on()
        workloads.RUNNERS[name](1, after_pass=recorder.off)
    recorder.on()
    for argv in CLI_RUNS:
        code = cli.main(list(argv), out=io.StringIO())
        if code not in (0, 1):
            sys.exit(f"rrseries {' '.join(argv)} exited {code}")
    recorder.off()


def main():
    recorder = CallRecorder()
    exercise(recorder)
    rows = unreached(PACKAGE, recorder.entered)
    for name, line in rows:
        print(f"{name}  {line}")
    print(f"{len(rows)} unreached")


if __name__ == "__main__":
    main()
