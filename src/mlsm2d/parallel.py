"""Row-independent batches computed in bounded chunks on two threads.

numpy's batched SVD and matmul and cKDTree.query release the GIL, so a
batch whose rows are computed independently runs on two cores when the
calling thread and a persistent worker thread take its row ranges from
one shared queue. Each row goes through the same arithmetic either way,
so the joined result is bit-identical to one call over the batch.
"""
from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Rows per call, on either thread and inline: each thread's malloc arena
# grows with the temporaries of one call, so this bounds the batch's peak.
_CHUNK = 256

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
    """fn(0, n), computed as fn over _CHUNK-row ranges on two threads.

    fn(lo, hi) returns an array, or a tuple or dict of arrays, whose rows
    are rows lo to hi - 1 of the batch; the parts are joined in row order.
    The calling thread and the worker take ranges from one shared queue
    until it is empty, and once a call raises no range is handed out. The
    calling thread takes them all on a single CPU or for a single range.
    """
    ranges = range(0, n, _CHUNK)
    # next() on a range iterator holds the GIL, so each start goes to one thread.
    starts, parts = iter(ranges), [None] * len(ranges)

    def take() -> None:
        try:
            for lo in starts:
                parts[lo // _CHUNK] = fn(lo, min(lo + _CHUNK, n))
        except BaseException:
            deque(starts, maxlen=0)
            raise

    helpers = [_worker.submit(take)] if n > _CHUNK and _cpus() > 1 else []
    try:
        take()
    finally:
        # Never return, or raise, while the worker still runs on the batch.
        wait(helpers)
    for helper in helpers:
        helper.result()
    return _join(parts)


def _join(parts: list):
    """Concatenate parts of the same structure along their rows."""
    first = parts[0]
    if isinstance(first, dict):
        return {key: _join([part[key] for part in parts]) for key in first}
    if isinstance(first, tuple):
        return tuple(_join(list(column)) for column in zip(*parts))
    return np.concatenate(parts)
