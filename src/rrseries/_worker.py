"""Run a list of functions, some of them in one forked worker process.

``verify.run_paper_suite`` imports this module when it runs, so importing
``rrseries`` does not load it.
"""

import os
import pickle
import signal
import threading


def run(items):
    """The result of each function of ``items``, (in_worker, function) pairs,
    in the order of ``items``.

    The functions marked ``in_worker`` run in one forked child while this
    process runs the others.  The child pickles its results, or the
    exception one of them raised, down a pipe and always ends by
    ``os._exit``; this process re-raises that exception.  On any error
    here, KeyboardInterrupt included, the child is killed and reaped.
    Without ``os.fork``, with fewer than two CPUs, or with another thread
    running (the child would hold the locks that thread held, and no
    thread to release them), every function runs here, in order.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if not hasattr(os, "fork") or cpus < 2 or threading.active_count() > 1:
        return [function() for _, function in items]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = [function() for in_worker, function in items if in_worker]
            except BaseException as exc:
                payload = exc
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            mine = [None if in_worker else function() for in_worker, function in items]
            try:
                payload = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise ChildProcessError("the worker process ended without its results") from exc
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    os.waitpid(pid, 0)
    if isinstance(payload, BaseException):
        raise payload
    theirs = iter(payload)
    return [next(theirs) if in_worker else result
            for (in_worker, _), result in zip(items, mine)]
