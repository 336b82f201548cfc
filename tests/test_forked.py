"""The fork protocol itself: a message larger than a pipe's buffer arrives
whole, one cut short by the deadline or by the child's death does not count,
and a package error is the child's answer where any other exception sends
none."""

import os
import time
import warnings

import pytest

from conftest import assert_no_child
from subgradnet import DivergenceDetected, forked

pytestmark = pytest.mark.skipif(not forked._FORKS, reason="work is forked on Linux only")

BIG = 1 << 20  # bytes, far beyond a pipe's 64 KiB buffer


def test_a_message_larger_than_the_pipe_buffer_arrives_whole():
    child = forked.Child(lambda c: c.reply(bytes.__mul__, b"x", BIG))
    try:
        assert child.receive(child.started) == (True, b"x" * BIG)
    finally:
        child.close()
    assert_no_child()


def _cut_short(then):
    """The work of a child that sends the head of a BIG message and part of
    its body, then calls ``then``."""
    def work(child):
        os.write(child._out, forked._LENGTH.pack(BIG) + b"x" * 1000)
        then()
    return work


@pytest.mark.parametrize("then", [lambda: time.sleep(60.0), lambda: os._exit(0)],
                         ids=("hung", "exited"))
def test_a_message_cut_short_does_not_count(monkeypatch, then):
    monkeypatch.setattr(forked, "_MIN_WAIT_S", 0.2)
    child = forked.Child(_cut_short(then))
    start = time.monotonic()
    try:
        assert child.receive(child.started) == (False, None)
    finally:
        child.close()
    assert time.monotonic() - start < 10.0
    assert_no_child()


def _diverges():
    warnings.warn("a warning before the error", RuntimeWarning)
    raise DivergenceDetected("state norm blew up at step 7", replication=3, step=7,
                             norm_sq=2e24)


def test_a_package_error_arrives_with_its_fields_after_the_childs_warnings():
    child = forked.Child(lambda c: c.reply(_diverges))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceDetected, match="step 7") as info:
                child.receive(child.started)
            # Issued before receive raised, under the line that warned.
            [shown] = caught
    finally:
        child.close()
    assert str(shown.message) == "a warning before the error"
    assert (shown.filename, shown.lineno) == (__file__, _diverges.__code__.co_firstlineno + 1)
    assert (info.value.replication, info.value.step, info.value.norm_sq) == (3, 7, 2e24)
    assert_no_child()


class _Unpicklable(DivergenceDetected):
    def __reduce__(self):
        raise TypeError("cannot pickle this error")


def _not_a_package_error():
    raise ValueError("not a package error")


def _unpicklable():
    raise _Unpicklable("no pickle")


@pytest.mark.parametrize("fn", [_not_a_package_error, _unpicklable],
                         ids=("ValueError", "unpicklable"))
def test_another_exception_sends_no_message(fn):
    child = forked.Child(lambda c: c.reply(fn))
    try:
        assert child.receive(child.started) == (False, None)
    finally:
        child.close()
    assert_no_child()
