"""The fork lifecycle that ``fpca`` and ``simulate`` share (``twophase.forking``)."""

import multiprocessing
import os
import time
import warnings

import pytest

from twophase import forking
from twophase.errors import ConvergenceError

from alarm import deadline

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="workers are forked")


def serving(handle):
    """A team entry whose worker answers each request with ``handle(request)``."""
    return lambda: handle


def warn_twice(request):
    warnings.warn(f"{request} first")
    warnings.warn(f"{request} second", UserWarning)
    return request


LINES = {"first": warn_twice.__code__.co_firstlineno + 1,
         "second": warn_twice.__code__.co_firstlineno + 2}


def message_of(text):
    warnings.warn(text)


def test_queued_requests_are_answered_in_order():
    with deadline(30), forking.team("demo", [serving(lambda r: r * r)] * 2) as workers:
        for worker in workers:
            for request in (3, 1, 2):
                worker.send(request)
        assert [[w.recv() for _ in range(3)] for w in workers] == [[9, 1, 4]] * 2
    assert all(w.process.exitcode == 0 for w in workers)
    assert multiprocessing.active_children() == []


def test_the_first_request_starts_the_worker_once():
    def start():
        count = []
        return lambda request: count.append(request) or len(count)
    with deadline(30), forking.team("demo", [start]) as (worker,):
        for request in "abc":
            worker.send(request)
        assert [worker.recv() for _ in "abc"] == [1, 2, 3]


def test_a_finished_worker_exits_once_it_has_answered():
    with deadline(30), forking.team("demo", [serving(lambda r: r + 1)]) as (worker,):
        worker.send(1)
        worker.send(2)
        worker.finish()
        worker.process.join(20)              # it exits before the team does
        assert worker.process.exitcode == 0
        assert [worker.recv(), worker.recv()] == [2, 3]
        with pytest.raises(RuntimeError, match="demo worker .* died"):
            worker.recv()


def test_a_workers_exception_is_raised_again_with_its_attributes():
    def diverging(request):
        raise ConvergenceError(f"request {request} diverged", iterations=7,
                               gradient_norm=0.5)
    with deadline(30), pytest.raises(ConvergenceError, match="request 1 diverged") as got:
        with forking.team("demo", [serving(diverging)]) as (worker,):
            worker.send(1)
            worker.recv()
    assert (got.value.iterations, got.value.gradient_norm) == (7, 0.5)
    [note] = got.value.__notes__
    assert note.startswith(f"in demo worker {worker.process.pid}:\n")
    assert "in diverging" in note and "ConvergenceError: request 1 diverged" in note
    assert multiprocessing.active_children() == []


def test_a_workers_exception_does_not_end_the_worker():
    def odd_only(request):
        if request % 2 == 0:
            raise ValueError(f"{request} is even")
        return request
    with deadline(30), forking.team("demo", [serving(odd_only)]) as (worker,):
        for request in (1, 2, 3):
            worker.send(request)
        assert worker.recv() == 1
        with pytest.raises(ValueError, match="2 is even"):
            worker.recv()
        assert worker.recv() == 3


def test_a_workers_warnings_are_replayed_in_order():
    with deadline(30), warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        with forking.team("demo", [serving(warn_twice)]) as (worker,):
            worker.send("a")
            worker.send("b")
            assert got == []                 # not before their reply is received
            assert worker.recv() == "a"
            assert worker.recv() == "b"
    assert [(str(w.message), w.category, w.filename, w.lineno) for w in got] == [
        (f"{request} {which}", UserWarning, __file__, LINES[which])
        for request in "ab" for which in ("first", "second")]


def test_a_workers_warnings_meet_this_processs_registry():
    with deadline(30), warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("default")
        warn_twice("a")                      # "default" shows it here once
        with forking.team("demo", [serving(warn_twice)]) as (worker,):
            worker.send("a")
            worker.send("b")
            worker.recv()
            worker.recv()
    assert [str(w.message) for w in got] == ["a first", "a second", "b first", "b second"]


@pytest.mark.parametrize("death", ["recv", "send"])
def test_a_dead_worker_raises_at_send_or_recv(death):
    with deadline(30), forking.team("demo", [serving(lambda r: os._exit(3))]) as (worker,):
        worker.send(1)
        with pytest.raises(RuntimeError, match=f"^demo worker {worker.process.pid} died$"):
            if death == "send":
                worker.process.join()
                worker.send(2)
            else:
                worker.recv()
    assert worker.process.exitcode == 3


def test_a_reply_never_read_ends_the_worker_quietly(capfd):
    # Closing a pipe that holds an unread reply resets the connection: the
    # worker's next read fails, and it must return as at EOF.
    with deadline(30), forking.team("demo", [serving(lambda r: r)]) as (worker,):
        worker.send(42)
        time.sleep(0.2)                      # the reply is waiting, unread
    assert worker.process.exitcode == 0
    assert capfd.readouterr().err == ""


def test_an_exception_in_the_block_terminates_the_workers():
    with deadline(30), pytest.raises(KeyError):
        with forking.team("demo", [serving(lambda r: time.sleep(60))] * 2) as workers:
            for worker in workers:
                worker.send(None)
            raise KeyError("abandoned")
    assert all(w.process.exitcode is not None for w in workers)
    assert multiprocessing.active_children() == []


def test_a_daemonic_caller_gets_one_process(monkeypatch):
    monkeypatch.setattr(forking, "_cpu_count", lambda: 2)
    assert forking.process_count(2) == 2
    assert forking.process_count(1) == 1
    context = multiprocessing.get_context("fork")
    mine, theirs = context.Pipe()
    daemon = context.Process(target=lambda: theirs.send(forking.process_count(2)),
                             daemon=True)
    with deadline(30):
        daemon.start()
        theirs.close()
        got = mine.recv()
        daemon.join()
    assert (got, daemon.exitcode) == (1, 0)


def test_recorded_warnings_are_replayed_as_a_serial_run_shows_them():
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("default")
        filters = warnings.filters[:]
        message_of("a")                      # shown, and entered in the registry
        with forking.recorded_warnings() as caught:
            message_of("a")                  # dropped: it would not be shown again
            message_of("b")
            message_of("b")
        assert [str(w.message) for w in got] == ["a"]
        assert warnings.filters == filters
        message_of("c")
        forking.replay_warnings(caught)
        message_of("a")
    assert [str(m) for m, *_ in caught] == ["b", "b"]
    line = message_of.__code__.co_firstlineno + 1
    assert [(str(w.message), w.filename, w.lineno) for w in got] == [
        (text, __file__, line) for text in "acb"]
