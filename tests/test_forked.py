"""The fork protocol itself: a message larger than a pipe's buffer arrives
whole, and one cut short by the deadline or by the child's death does not
count."""

import os
import time

import pytest

from conftest import assert_no_child
from subgradnet import forked

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
