"""A pool of forked worker processes for a pass split into chunks.

``run(fn, tasks, first)`` runs ``first()`` in the caller while the workers
run ``fn(task)``, one task each, and returns their results in task order.
``fn`` is a module-level function, pickled by reference with each task;
``maxop`` passes its member pass's ``_run``.

The workers are forked from the caller the first time ``run`` has a task
and kept until the process exits, and the pool grows by one fork wherever
a call has more tasks than it has workers (so n - 1 forks in all for a
caller that splits its passes into n chunks, whatever the number of
passes).  The caller sends each task through its worker's socket pair,
pickled with protocol 5, so that numpy buffers go out of band, straight
from the caller's arrays, and then runs first(); a task whose socket pair
or fork raises ``OSError`` (out of processes, memory or file descriptors)
runs in the caller too, after first().

A worker ignores SIGINT, so that Ctrl-C reaches the caller alone, and it
leaves through ``os._exit`` at the end of its socket, so that a caller
killed by a signal leaves no worker behind.  At exit (``atexit``) the
caller closes every socket and kills and reaps every worker.  A process
forked from the caller, by user code or by a new worker, drops the pool it
inherits (``os.register_at_fork``): it closes its copies of the sockets, so
it never writes into its parent's workers and keeps no worker's socket
open, and it forks a pool of its own if it runs a task.  A worker that
raises sends back its exception's type, message and traceback, and the
caller raises ``RuntimeError`` naming them; a worker found dead (its
socket ended) fails the call with ``RuntimeError`` too.  Any exception in
the caller during a call (a worker's, first()'s, a ``KeyboardInterrupt``)
closes, kills and reaps the pool before it propagates, so no later call
reads a stale result: the next one forks a new pool.  One call at a time
uses the pool (a lock).  A worker keeps the pages of the caller's heap at
its fork alive, copy-on-write, for as long as it lives.  On a 2-CPU VM the
pool, against a fork per split member pass that merged each worker's whole
field, took the h2-field benchmark's rescaled median request from 0.187 to
0.156 s (-17 %, lower in 10 of 10 alternating 15-s runs; raw medians 0.192
and 0.159 s), and the caller's minor page faults per request from about
6,200 to 3,900.

Python >= 3.12 warns on ``os.fork`` in a threaded process, and numpy's
OpenBLAS starts a thread at import; the pool silences that warning around
its forks.  So ``fn`` must call no BLAS routine and take no lock that
another thread may hold.  ``maxop._run`` only runs the family's ``cells``
and numpy's elementwise, comparison, sort and sum loops, and writes only
its own arrays and its socket.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import signal
import struct
import threading
import warnings
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import socket


class _Worker(NamedTuple):
    pid: int
    sock: socket.socket  # the caller's end of its socket pair


# the live workers, forked on demand and kept until exit or a failed call;
# the lock keeps one call at a time on them
_pool: list = []
_lock = threading.Lock()


def run(fn, tasks: list, first) -> list:
    """first() here, and fn(task) for each task, in order: task k in worker
    k of the pool, forked if missing, or here, after first(), where that
    fails.  Any exception closes the pool; a worker's raises ``RuntimeError``."""
    if not tasks:
        first()
        return []
    with _lock:
        try:
            used, workers = 0, []
            for task in tasks:
                if used == len(_pool):
                    _grow()
                w = _pool[used] if used < len(_pool) else None
                if w is not None:
                    _send(w.sock, (fn, task))
                    used += 1
                workers.append(w)
            first()
            return [fn(t) if w is None else _reply(w) for t, w in zip(tasks, workers)]
        except (ConnectionError, EOFError) as exc:
            _close_pool()
            raise RuntimeError("a member-pass worker died") from exc
        except BaseException:
            _close_pool()
            raise


def _reply(w: _Worker):
    """Worker w's result; ``RuntimeError`` where its task raised."""
    ok, out = _recv(w.sock)
    if not ok:
        name, message, tb = out
        raise RuntimeError(f"a member-pass worker failed: {name}: {message}\n\nworker {tb}")
    return out


def _grow() -> None:
    """Fork one more worker; none where its socket pair or fork raises ``OSError``."""
    import socket  # 4 ms to import: only a process that forks workers pays it

    socks = []
    try:
        socks += socket.socketpair()
        with warnings.catch_warnings():
            # Python >= 3.12 warns on a fork in a threaded process; the
            # worker is safe (see the module docstring)
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning)
            pid = os.fork()
    except OSError:
        for s in socks:
            s.close()
        return
    ours, theirs = socks
    if pid == 0:
        try:
            ours.close()
            _serve(theirs)
        finally:
            os._exit(0)
    theirs.close()
    _pool.append(_Worker(pid, ours))


def _serve(sock: socket.socket) -> None:
    """A worker's loop until its socket ends: send (True, fn(task)) for each
    (fn, task) read, or (False, (type name, message, traceback)) where it raises."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            fn, task = _recv(sock)
        except EOFError:
            return
        try:
            reply = (True, fn(task))
        except BaseException as exc:
            import traceback  # only a failing worker needs it

            reply = (False, (type(exc).__name__, str(exc), traceback.format_exc()))
        _send(sock, reply)


def _close_pool() -> None:
    """Close every worker's socket, then kill and reap it."""
    while _pool:
        w = _pool.pop()
        w.sock.close()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(w.pid, signal.SIGKILL)
            os.waitpid(w.pid, 0)


def _drop_pool() -> None:
    """In a forked child: close the inherited sockets of the parent's
    workers and forget them; the child forks a pool of its own."""
    global _lock
    while _pool:
        _pool.pop().sock.close()
    _lock = threading.Lock()


atexit.register(_close_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _send(sock: socket.socket, obj) -> None:
    """Send ``obj``: its parts' count and sizes, its pickle, then the
    buffers it leaves out of band (numpy arrays), each from its own memory."""
    bufs = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=bufs.append)
    parts = [memoryview(head), *(b.raw() for b in bufs)]
    sock.sendall(struct.pack(f"<{len(parts) + 1}q", len(parts), *(p.nbytes for p in parts)))
    for p in parts:
        sock.sendall(p)


def _recv(sock: socket.socket):
    """The object that ``_send`` sent; ``EOFError`` where the socket ends."""
    (count,) = struct.unpack("<q", _read(sock, 8))
    head, *bufs = (_read(sock, size) for size in struct.unpack(f"<{count}q", _read(sock, 8 * count)))
    return pickle.loads(head, buffers=bufs)


def _read(sock: socket.socket, size: int) -> bytearray:
    buf = bytearray(size)
    view = memoryview(buf)
    while view:
        got = sock.recv_into(view)
        if not got:
            raise EOFError("a member-pass socket ended")
        view = view[got:]
    return buf
