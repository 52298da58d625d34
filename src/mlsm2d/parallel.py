"""Row-independent batches split between the calling thread and one worker.

numpy's batched SVD and matmul and cKDTree.query release the GIL, so a
batch whose rows are computed independently runs on two cores when the
calling thread computes its first half while a persistent worker thread
computes the second. Each row goes through the same arithmetic either
way, so the joined result is bit-identical to one call over the batch.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Rows per call on the worker: its thread has a malloc arena of its own,
# which grows with the temporaries of one call and keeps what it took.
_CHUNK = 256
# Smaller batches run inline, where a handover would cost more than it saves.
_MIN_ROWS = 2 * _CHUNK

# The worker; its thread starts on the first split and then stays.
_worker = ThreadPoolExecutor(1)


def _new_worker() -> None:
    global _worker
    _worker = ThreadPoolExecutor(1)


# A forked child inherits the executor but not its thread.
os.register_at_fork(after_in_child=_new_worker)


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _split_rows(fn, n: int):
    """fn(0, n), computed as fn over row ranges on two threads.

    fn(lo, hi) returns an array, or a tuple or dict of arrays, whose rows
    are rows lo to hi - 1 of the batch; the parts are joined in row order.
    Runs fn(0, n) inline on a single CPU or for a batch below _MIN_ROWS.
    The calling thread computes the first half and the worker the second,
    _CHUNK rows per call.
    """
    if n < _MIN_ROWS or _cpus() < 2:
        return fn(0, n)
    half = n // 2
    job = [fn]

    def tail_rows():
        # Taken out of job, fn and the arrays it holds are dropped when this
        # returns: the last reference, and the freeing of a large array,
        # stays on the calling thread.
        f = job.pop()
        return [f(lo, min(lo + _CHUNK, n)) for lo in range(half, n, _CHUNK)]

    tail = _worker.submit(tail_rows)
    try:
        head = fn(0, half)
    finally:
        # Never return, or raise, while the worker still runs on the batch.
        wait([tail])
    return _join([head, *tail.result()])


def _join(parts: list):
    """Concatenate parts of the same structure along their rows."""
    first = parts[0]
    if isinstance(first, dict):
        return {key: _join([part[key] for part in parts]) for key in first}
    if isinstance(first, tuple):
        return tuple(_join(list(column)) for column in zip(*parts))
    return np.concatenate(parts)
