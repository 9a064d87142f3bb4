"""Forked worker processes: the package's one way to use more than one CPU.

A caller that can split its work asks :func:`process_count` how many
processes, itself included, to split it over, and forks the other
workers with :func:`team`.  Each worker answers requests sent down its
pipe, in order, until the pipe closes or :meth:`Worker.finish` says that
no request follows.  The FPCA E-step (``fpca._chunk_team``) and the
estimates of a Monte Carlo replicate (``simulate.estimate_all``) run
this way.  A caller that computes part of the work itself, and must
show that part's warnings between its workers' ones, records them with
:func:`recorded_warnings` and replays them with :func:`replay_warnings`.

Workers are forked, not spawned: they read the caller's arrays through
the fork, without a copy or a pickle, and send back only their results.
multiprocessing's ``fork`` context flushes stdio before it forks.
Python 3.12 and later warn (DeprecationWarning) when a process that runs
threads, such as a multi-threaded BLAS, forks.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import sys
import traceback
import warnings


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def process_count(wanted: int) -> int:
    """Processes, this one included, to split ``wanted`` parts of work over.

    The smaller of ``wanted`` and :func:`_cpu_count`; 1 where the ``fork``
    start method does not exist or this process is a daemonic
    multiprocessing worker, which may not have children.
    """
    processes = min(_cpu_count(), wanted)
    if processes > 1:
        import multiprocessing
        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon):
            return 1
    return processes


def _warn_again(message, category, filename, lineno):
    """Issue a warning recorded in a worker as ``warnings.warn`` issued it
    there: under the module of ``filename`` and with its registry, so this
    process's filters, "default" deduplication included, act on it as they
    would have on the serial call."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
        return
    where = vars(module)
    warnings.warn_explicit(message, category, filename, lineno, module=module.__name__,
                           registry=where.setdefault("__warningregistry__", {}),
                           module_globals=where)


def replay_warnings(caught) -> None:
    """Warn each ``(message, category, filename, lineno)`` of ``caught``,
    in order, with :func:`_warn_again`."""
    for warning in caught:
        _warn_again(*warning)


@contextlib.contextmanager
def recorded_warnings():
    """Record the warnings of the ``with`` block instead of showing them;
    the block yields the list that :func:`replay_warnings` takes.

    Every warning is recorded whatever the filters say, and none is
    entered in a registry, so that :func:`replay_warnings` later applies the
    filters and registries of that moment, as :meth:`Worker.recv` does
    for a worker's warnings.  Only a warning that its module's registry
    already holds is dropped, as it would be when replayed.  The
    filters are changed in place: ``warnings.catch_warnings`` would mark
    them changed, and that empties every module's registry, so that the
    "default" action would show again what it has already shown.
    """
    caught = []
    showwarning, filters = warnings.showwarning, warnings.filters[:]
    warnings.showwarning = lambda message, category, filename, lineno, *_: caught.append(
        (message, category, filename, lineno))
    warnings.filters.insert(0, ("always", None, Warning, None, 0))
    try:
        yield caught
    finally:
        warnings.filters[:] = filters
        warnings.showwarning = showwarning


class Worker:
    """One forked worker of a :func:`team`: :meth:`send` it a request, then
    :meth:`recv` its reply."""

    def __init__(self, name, process, conn):
        self.name, self.process, self.conn = name, process, conn

    def _died(self):
        return RuntimeError(f"{self.name} worker {self.process.pid} died")

    def send(self, request) -> None:
        try:
            self.conn.send(request)
        except OSError:
            raise self._died() from None

    def finish(self) -> None:
        """Send no further request: the worker exits once it has answered
        those sent, while this process works, rather than when the team
        exits, whose join then need not wait for it.  The replies are
        received as before."""
        # The pipe is a socket pair: shut down its request direction only.
        with socket.socket(fileno=os.dup(self.conn.fileno())) as end:
            end.shutdown(socket.SHUT_WR)

    def recv(self):
        """The reply to the oldest request not yet received.

        The warnings the worker recorded while computing it are issued
        here first, in their order (:func:`_warn_again`).  An exception
        the computation raised is raised here, with the same class,
        message and attributes, and the worker's formatted traceback
        attached: as a note on Python 3.11 and later, as the
        ``__cause__`` before.  A worker that died, or closed its end,
        raises RuntimeError.
        """
        try:
            ok, value, caught = self.conn.recv()
        except (EOFError, OSError):
            raise self._died() from None
        replay_warnings(caught)
        if ok:
            return value
        exc, text = value
        note = f"in {self.name} worker {self.process.pid}:\n{text}"
        if sys.version_info >= (3, 11):
            exc.add_note(note)
            raise exc
        raise exc from RuntimeError(note)


def _serve(conn, start, inherited):
    """A forked worker: answer each request from ``conn`` with
    ``handle(request)``, ``handle`` being what ``start()`` returns.

    ``start`` runs once, at the first request.  Each reply is
    ``(ok, value, warnings)``: the result, or the exception raised with
    its formatted traceback, and the warnings recorded meanwhile, which
    this process's copy of the caller's filters let through.  The worker
    returns when ``conn`` reaches EOF, that is when the parent closes its
    end or dies; when a read fails, as it does with a connection reset
    where the parent closed its end on a reply it had not read; or when a
    reply cannot be sent.  ``inherited`` holds the parent's ends of the
    pipes open at the fork, its own included, which are closed here, so
    that the parent's end closing is seen as EOF.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # an interrupt is the parent's to handle
    for other in inherited:
        other.close()
    handle = None
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        with warnings.catch_warnings(record=True) as caught:
            try:
                if handle is None:
                    handle = start()
                ok, value = True, handle(request)
            except Exception as exc:  # noqa: BLE001 - raised again by the parent
                ok, value = False, (exc, traceback.format_exc())
        reply = ok, value, [(w.message, w.category, w.filename, w.lineno) for w in caught]
        try:
            conn.send(reply)
        except OSError:           # the parent has closed its end
            return


@contextlib.contextmanager
def team(name: str, starts):
    """Fork one worker per entry of ``starts`` and yield them, in order, as
    :class:`Worker` objects; an empty ``starts`` forks nothing.

    Each entry is called once in its worker, at the first request, and
    returns the function that answers every request (see :func:`_serve`).
    ``name`` names the workers in errors: a worker that dies raises
    ``RuntimeError("<name> worker <pid> died")`` at the send or receive
    that meets it.  The workers are terminated if the team exits by an
    exception, and joined on every exit.  Call :func:`process_count`
    first: a daemonic process cannot fork.
    """
    workers = []
    try:
        if starts:
            import multiprocessing
            context = multiprocessing.get_context("fork")
            for start in starts:
                mine, theirs = context.Pipe()
                process = context.Process(
                    target=_serve, daemon=True,
                    args=(theirs, start, [*(w.conn for w in workers), mine]))
                process.start()
                theirs.close()
                workers.append(Worker(name, process, mine))
        yield workers
    except BaseException:
        for worker in workers:
            worker.process.terminate()   # it may be inside a request this process abandoned
        raise
    finally:
        for worker in workers:
            worker.conn.close()          # an idle worker returns at EOF
        for worker in workers:
            worker.process.join()
