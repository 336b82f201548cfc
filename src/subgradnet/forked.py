"""Work run in a forked child while the parent goes on.  Every child of a
run follows this one protocol: the setup child of ``experiment``, and in
``engine`` the draw producer and the Monte Carlo workers, each of which runs
one part of the replications.

A child is forked (``os.fork`` and two pipes) on Linux only, and only when the
process runs one thread and its affinity mask has more CPUs than the
``workers`` it runs itself (a Monte Carlo worker passes 0, so it is forked
whatever the CPU count); elsewhere, or where no process can be had, the caller
does the work in line.  The child runs ``work(child)`` and exits, with status
1 if anything failed, never returning into the caller's code.  Each process
closes at once the pipe ends it does not use, so end of file means the other
side is gone.  The child sends each result as one message, a length and a
pickle of ``(result, warnings)``, which counts only once all its bytes have
arrived; the parent re-issues the warnings under the file and line that raised
them, and sends one-byte tokens the other way.  The parent waits for a message
at most as long as the child has already had for it, or ``_MIN_WAIT_S`` if
that is longer; a child that has not answered by then, having raised, died or
hung, counts as lost, and the caller does its work in line.
:meth:`Child.close` kills the child, reaps it and closes the parent's pipe
ends; each caller calls it on every path, an exception included.
"""

import contextlib
import os
import pickle
import select
import signal
import struct
import sys
import threading
import time
import warnings

# Whether work may be forked (os.fork, pipes and shared memory); elsewhere it
# runs in line.
_FORKS = sys.platform.startswith("linux")
# The least time a parent waits for a child that has not answered before it
# kills it and does the work itself.
_MIN_WAIT_S = 1.0

_LENGTH = struct.Struct("=Q")


def may_fork(workers):
    """Whether a forked child may gain time: a child copies no thread but
    the caller's, so a lock another thread holds would stay held in it for
    good, and it only gains time on a CPU that ``workers`` processes leave
    idle."""
    return (_FORKS and threading.active_count() == 1
            and len(os.sched_getaffinity(0)) > workers)


def start(work, workers):
    """``Child(work)``, or None where forking does not pay or no process can
    be had."""
    if may_fork(workers):
        with contextlib.suppress(OSError):  # no process to be had
            return Child(work)
    return None


def _reissue(shown):
    """Warn with each of a child's recorded warnings, under the module and
    registry of the code that raised it, as if it had been raised here.  A
    file that no loaded module has gets warn_explicit's defaults."""
    for message, category, filename, lineno in shown:
        mod = next((mod for mod in list(sys.modules.values())
                    if getattr(mod, "__file__", None) == filename), None)
        where = {} if mod is None else {
            "module": mod.__name__,
            "registry": vars(mod).setdefault("__warningregistry__", {})}
        warnings.warn_explicit(message, category, filename, lineno, **where)


class Child:
    """``work(child)`` run in a forked child, which talks to the parent
    through this object: :meth:`reply` and :meth:`wait` on the child's side,
    :meth:`receive`, :meth:`token` and :meth:`close` on the parent's.
    ``started`` is when the child was forked."""

    def __init__(self, work):
        to_child_r, to_child_w = os.pipe()
        to_parent_r, to_parent_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (to_child_r, to_child_w, to_parent_r, to_parent_w):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(to_child_w)
                os.close(to_parent_r)
                self._in, self._out = to_child_r, to_parent_w
                work(self)
                code = 0
            finally:
                os._exit(code)
        os.close(to_child_r)
        os.close(to_parent_w)
        self._pid, self._in, self._out = pid, to_parent_r, to_child_w
        self._poller = select.poll()
        self._poller.register(to_parent_r, select.POLLIN)
        self.started = time.monotonic()

    def reply(self, fn, *args):
        """Child side: calls ``fn(*args)`` and sends its result and the
        warnings it raised as one message."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args)
        shown = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        body = pickle.dumps((result, shown), pickle.HIGHEST_PROTOCOL)
        data = memoryview(_LENGTH.pack(len(body)) + body)
        while data:
            data = data[os.write(self._out, data):]

    def wait(self):
        """Child side: whether a token came; end of file means the parent is
        gone."""
        return os.read(self._in, 1) != b""

    def receive(self, since):
        """Whether the child's next message arrived, and its result, its
        warnings issued here.  The wait lasts at most as long as the child has
        had since ``since``, or ``_MIN_WAIT_S`` if that is longer."""
        now = time.monotonic()
        deadline = now + max(now - since, _MIN_WAIT_S)
        head = self._read(_LENGTH.size, deadline)
        body = head and self._read(_LENGTH.unpack(head)[0], deadline)
        if body is None:
            return False, None
        result, shown = pickle.loads(body)
        _reissue(shown)
        return True, result

    def _read(self, size, deadline):
        """``size`` bytes from the child, or None at end of file or past
        ``deadline``."""
        data = bytearray()
        while len(data) < size:
            left = deadline - time.monotonic()
            if left <= 0 or not self._poller.poll(left * 1000):
                return None
            chunk = os.read(self._in, size - len(data))
            if not chunk:
                return None
            data += chunk
        return data

    def token(self):
        """Parent side: one token to the child.  A lost child shows at the
        next :meth:`receive`."""
        with contextlib.suppress(BrokenPipeError):
            os.write(self._out, b"\0")

    def close(self):
        """Kills and reaps the child and closes the parent's pipe ends."""
        os.close(self._in)
        os.close(self._out)
        os.kill(self._pid, signal.SIGKILL)
        os.waitpid(self._pid, 0)
