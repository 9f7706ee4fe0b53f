"""One pool of worker processes, for any number of rounds of jobs.

A Pool is this process plus W - 1 children forked from it, where W is
the most jobs a round can hold, as the caller says, capped by the pool at
the number of CPUs in this process's affinity set. The children are
forked at the first round that has a block for one of them, not when the
pool is made, so a pool whose every round is one job forks nothing. They
inherit everything that exists at that point (a dataset, a network, the
job functions), so a round sends each of them one small pickled payload.
Every process turns the payload into the same n jobs with the pool's
prepare(payload) -> (job, n) and runs its block of them: with
A = min(W, n) ranks active, the jobs split into A contiguous blocks in
rank order, and each rank runs its block in order and stops at its first
failing job. This process is rank 0 and holds the smallest block, so a
one-job round runs here and sends nothing; the children take ranks
1 .. A - 1. Once the children are forked, each process keeps to its own
CPU of the set while the pool lives, and this one gets its whole set
back when the pool closes: where the kernel does not balance load across
CPUs, a forked child would otherwise share its parent's CPU. A pool that
forks nothing leaves the affinity alone.

While any pool lives, one process or many, every process of it runs
numpy's BLAS at one thread: set here when the pool is made, so the
children inherit it, and given back at close(). OpenBLAS otherwise keeps
one thread per CPU, and on a pinned process those threads share its one
CPU; large products then run many times slower, and their rounding
depends on the thread count, so the bytes would depend on whether a
round forked. The count is set through the thread functions of the
OpenBLAS that numpy bundles. Where numpy has none (another BLAS, or
numpy 1.x), no process is pinned, so BLAS threads can spread over the
CPUs, and a warning says so once per process; the bytes may then depend
on the thread count.

Each child has a pipe of multiprocessing.connection in each direction,
which carries whole messages of any size. This process runs its own
block first, its records and exceptions passing through as they happen,
as in a one-process run, and takes in the children's messages between
its jobs. A round may then make one more call here, the caller's
meanwhile (say, to set up the next round), while the children finish;
a round that runs here alone makes it after its jobs. It takes in no
messages while it runs: a child whose pipe fills waits, as it would
have waited for the round to begin had the call come before it. A child
sends one message per job, its result pickled with the records the job
logged to the terradapt loggers, then an empty message.
The round then handles the children's records in job order and returns
the results in job order, or raises the first failing job's exception
after the records of every job before it, as one process running the
jobs in order would (without a child's traceback). A result or exception
that cannot be sent back becomes a RuntimeError that names its job, as
does a child that ends before its job returns. A round that raises, the
interrupt included, kills and reaps every child at once, as does a fork
that fails in the first round; close() reaps them otherwise. What a job
changes in memory stays in its process.

With one usable CPU (say, under `taskset -c 0`), or where os.fork or
os.sched_getaffinity is missing (macOS, Windows), nothing is forked and
every job runs here, in order, its records and exceptions passing
through as they happen.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
import pickle
import signal
from multiprocessing.connection import Pipe, wait

import numpy as np

log = logging.getLogger(__name__)


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def map_jobs(job, n: int) -> list:
    """[job(0), ..., job(n - 1)], as one round of a pool of at most n processes."""
    with Pool(lambda payload: (job, n), n) as pool:
        return pool.round(None)


class _Capture(logging.Handler):
    """A block's log records, pre-formatted so that they pickle."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles, or
    None, with a warning (once per process), where numpy has no such BLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_count = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        log.warning("numpy's BLAS thread count cannot be set here; worker processes "
                    "are not pinned to CPUs, and BLAS keeps its own thread count")
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_count.argtypes, set_count.restype = [ctypes.c_int], None
    return get, set_count


def _pin(cpu) -> None:
    """Keep this process on one CPU (None: leave it free), where the kernel
    allows it. Where the scheduler does not balance load across CPUs, a
    forked child otherwise stays on its parent's CPU and the two share it."""
    if cpu is None:
        return
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


def _block(rank: int, n: int, active: int) -> range:
    """The jobs of rank when n jobs are split over active ranks: contiguous
    blocks in rank order, rank 0 holding the fewest."""
    return range(rank * n // active, (rank + 1) * n // active)


class _Child:
    """A forked child: its pid, this process's connections to it, and the
    messages it has sent in the current round. wait() takes it as the
    connection it sends on."""

    def __init__(self, pid: int, send, recv):
        self.pid, self.send, self.recv = pid, send, recv
        self.messages = []
        self.done = True
        self.code = None    # exit code, once reaped

    def fileno(self) -> int:
        return self.recv.fileno()


class Pool:
    """This process and min(most, usable_cpus()) - 1 children, forked at
    the first round with a block for one; see the module docstring.
    prepare(payload) must return (job, n) in every process, for the same
    n. Use it as a context manager, or call close()."""

    def __init__(self, prepare, most: int):
        self._prepare = prepare
        self._size = max(min(most, usable_cpus()), 1)
        self._children = []
        self._affinity = self._blas_count = None
        if blas := _blas_threads():
            self._blas_count = blas[0]()
            blas[1](1)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(kill=exc_type is not None)

    def _fork_children(self) -> None:
        """Fork ranks 1 .. W - 1 and, where BLAS is held at one thread, pin
        every process to its own CPU of the affinity set."""
        cpus = [None] * self._size
        if self._blas_count is not None:
            self._affinity = os.sched_getaffinity(0)
            cpus = sorted(self._affinity)
        _pin(cpus[0])
        for rank in range(1, self._size):
            self._fork(rank, cpus[rank])

    def _fork(self, rank: int, cpu: int) -> None:
        cmd_r, cmd_w = Pipe(duplex=False)
        out_r, out_w = Pipe(duplex=False)
        try:
            pid = os.fork()
        except OSError:
            for conn in (cmd_r, cmd_w, out_r, out_w):
                conn.close()
            raise
        if pid == 0:
            code = 1
            try:
                for conn in (cmd_w, out_r, *(end for c in self._children
                                             for end in (c.send, c.recv))):
                    conn.close()
                _pin(cpu)
                _serve(self._prepare, rank, self._size, cmd_r, out_w)
                code = 0
            finally:
                os._exit(code)
        cmd_r.close()
        out_w.close()
        self._children.append(_Child(pid, cmd_w, out_r))

    def round(self, payload, meanwhile=None) -> list:
        """Run prepare(payload)'s jobs over the pool; their results in job
        order. meanwhile(), if given, runs here once, after this process's
        block and before the children's results are handled."""
        job, n = self._prepare(payload)
        active = min(self._size, n)
        try:
            if active <= 1:
                results = [job(i) for i in range(n)]
                if meanwhile is not None:
                    meanwhile()
                return results
            if not self._children:
                self._fork_children()
            busy = self._children[:active - 1]
            data = pickle.dumps(payload)
            for child in busy:
                child.messages, child.done = [], False
                child.send.send_bytes(data)
            results = []
            for i in _block(0, n, active):
                results.append(job(i))
                _receive(busy, 0)       # a child waits while its pipe is full
            if meanwhile is not None:
                meanwhile()
            while not all(child.done for child in busy):
                _receive(busy, None)
            return results + _in_job_order(n, active, busy)
        except BaseException:
            self.close(kill=True)
            raise

    def close(self, kill: bool = False) -> None:
        """End every child: close its pipes (with kill, SIGKILL it first)
        and reap it. This process gets back its CPUs and BLAS threads."""
        children, self._children = self._children, []
        for child in children:
            if kill and child.code is None:
                os.kill(child.pid, signal.SIGKILL)
            child.send.close()
            child.recv.close()
            if child.code is None:
                os.waitpid(child.pid, 0)
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
            self._affinity = None
        if self._blas_count is not None:
            _blas_threads()[1](self._blas_count)
            self._blas_count = None


def _serve(prepare, rank: int, size: int, cmd, out) -> None:
    """A child's loop: per payload received on cmd, run this rank's block of
    its jobs in order until one fails, sending one message per job on out,
    then an empty message. A result or exception that cannot be sent back
    becomes a RuntimeError that names the job. Returns when cmd is closed.
    The terradapt loggers' records go to a _Capture from here on, as the
    child exits after this."""
    capture = _Capture()
    logger = logging.getLogger("terradapt")
    logger.handlers, logger.propagate = [capture], False
    while True:
        try:
            payload = cmd.recv_bytes()
        except EOFError:
            return
        job, n = prepare(pickle.loads(payload))
        for i in _block(rank, n, min(size, n)):
            try:
                ok, value = True, job(i)
            except Exception as e:
                ok, value = False, e
            records, capture.records = capture.records, []
            try:
                data = pickle.dumps((ok, value, records))
                if not ok:
                    pickle.loads(data)      # an exception may pickle and not load
            except Exception as e:
                data = pickle.dumps((False, RuntimeError(
                    f"job {i}: {value!r} cannot be sent back from its worker process "
                    f"({type(e).__name__}: {e})"), records))
            out.send_bytes(data)
            if not ok:
                break
        out.send_bytes(b"")        # an empty message ends the block


def _receive(children, timeout) -> None:
    """Take in one message from each child of children that has one waiting
    and has not ended its block, waiting up to timeout seconds for the first
    (None: until one arrives). A child is done with its empty message, or
    when its pipe closes: it has ended, and is reaped."""
    for child in wait([c for c in children if not c.done], timeout):
        try:
            if message := child.recv.recv_bytes():
                child.messages.append(message)
                continue
        except EOFError:
            child.code = os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])
        child.done = True


def _in_job_order(n: int, active: int, busy: list) -> list:
    """Handle the children's records and results in job order, raising the
    first failing job's exception after the records of every job before it."""
    results = []
    for rank, child in enumerate(busy, 1):
        for k, i in enumerate(_block(rank, n, active)):
            if k >= len(child.messages):
                raise RuntimeError(f"job {i}: its worker process ended with exit code "
                                   f"{child.code} before the job returned")
            ok, value, records = pickle.loads(child.messages[k])
            for record in records:
                logging.getLogger(record.name).handle(record)
            if not ok:
                raise value
            results.append(value)
    return results
