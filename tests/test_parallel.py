"""Row batches computed in chunks by the calling thread and the persistent worker.

The split must be invisible in the results: the stencils of
build_shape_set and the positions of relax are compared byte for byte
between a run on the calling thread alone (one CPU) and a run forced to
split into small, ragged chunks. Every call sees at most one chunk, the
parts join in row order whichever thread ends last, an error surfaces
only once the worker has stopped and ends the queue, and a forked child
builds its own worker.
"""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from mlsm2d import parallel
from mlsm2d.cases.beam import RECT
from mlsm2d.cases.drilled import HOLES, hole_refined_cloud
from mlsm2d.cases.hertz import HALF_WIDTH, refinement_schedule
from mlsm2d.neighbors import build_supports
from mlsm2d.nodes import Rect, build_rectangle_grid
from mlsm2d.refine import refine_levels
from mlsm2d.relax import relax
from mlsm2d.shapes import build_shape_set
from mlsm2d.timing import PhaseTimer


def force(monkeypatch, split: bool) -> None:
    """Run every batch on the calling thread, or split every batch in shared chunks of 97."""
    monkeypatch.setattr(parallel, "_cpus", lambda: 2 if split else 1)
    if split:
        monkeypatch.setattr(parallel, "_CHUNK", 97)


def drilled_cloud(relax_iterations=20):
    """The drilled case's default cloud: holes refined once, then relaxed."""
    return hole_refined_cloud(PhaseTimer(), RECT, HOLES, 0.25, 1, relax_iterations)


def hertz_cloud():
    """The Hertz base grid refined toward the contact over four primary levels."""
    H = 1000.0 * HALF_WIDTH
    base = build_rectangle_grid(Rect(-H, H, -H, 0.0), 2.0 * H / 68)
    return refine_levels(base, refinement_schedule(HALF_WIDTH, 4))


def shape_bytes(nodes, n):
    shapes = build_shape_set(nodes, build_supports(nodes, n))
    parts = [shapes.key, shapes.ranks, *shapes.key_rows.values(), *shapes.ambiguous.values()]
    return shapes.n_keys, [a.tobytes() for a in parts]


class TestSplitRows:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_calls_are_bounded_chunks_joined_in_row_order(self, monkeypatch, cpus):
        monkeypatch.setattr(parallel, "_cpus", lambda: cpus)
        n, chunk = 10_000, parallel._CHUNK
        calls = []

        def fn(lo, hi):
            calls.append((lo, hi))
            rows = np.arange(lo, hi, dtype=float)
            return {"a": rows[:, None] * [1.0, 2.0]}, rows.astype(int)

        joined, ints = parallel._split_rows(fn, n)
        np.testing.assert_array_equal(joined["a"], np.arange(float(n))[:, None] * [1.0, 2.0])
        np.testing.assert_array_equal(ints, np.arange(n))
        assert sorted(calls) == [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]

    @pytest.mark.parametrize("cpus, n", [(1, 10_000), (2, parallel._CHUNK)])
    def test_one_cpu_or_one_chunk_stays_on_the_calling_thread(self, monkeypatch, cpus, n):
        monkeypatch.setattr(parallel, "_cpus", lambda: cpus)
        monkeypatch.setattr(parallel, "_worker", None)  # a handover would raise
        threads = set()

        def fn(lo, hi):
            threads.add(threading.get_ident())
            return np.zeros(hi - lo)

        assert parallel._split_rows(fn, n).shape == (n,)
        assert threads == {threading.get_ident()}

    def test_both_threads_take_chunks(self, monkeypatch):
        force(monkeypatch, split=True)
        caller, worker_took = threading.get_ident(), threading.Event()

        def fn(lo, hi):
            if threading.get_ident() == caller:
                assert worker_took.wait(timeout=10)
            else:
                worker_took.set()
            return np.arange(lo, hi)

        np.testing.assert_array_equal(parallel._split_rows(fn, 20 * 97), np.arange(20 * 97))

    @pytest.mark.parametrize("slow", ["caller", "worker"])
    def test_parts_join_in_row_order_when_chunks_end_out_of_order(self, monkeypatch, slow):
        force(monkeypatch, split=True)
        caller, finished = threading.get_ident(), []
        slow_started, fast_ahead = threading.Event(), threading.Event()

        def fn(lo, hi):
            if (threading.get_ident() == caller) == (slow == "caller"):
                slow_started.set()
                assert fast_ahead.wait(timeout=10)
            else:
                assert slow_started.wait(timeout=10)
            finished.append(lo)
            if len(finished) >= 2:
                fast_ahead.set()
            return np.arange(lo, hi)

        np.testing.assert_array_equal(parallel._split_rows(fn, 10 * 97), np.arange(10 * 97))
        assert sorted(finished) == list(range(0, 10 * 97, 97))
        assert finished != sorted(finished)

    def test_each_range_goes_to_one_call_under_frequent_switches(self, monkeypatch):
        force(monkeypatch, split=True)
        monkeypatch.setattr(parallel, "_CHUNK", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                starts = []

                def fn(lo, hi):
                    starts.append(lo)
                    return np.arange(lo, hi)

                np.testing.assert_array_equal(parallel._split_rows(fn, 500), np.arange(500))
                assert sorted(starts) == list(range(500))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_an_error_surfaces_after_the_worker_stops_and_ends_the_queue(self, monkeypatch, failing):
        force(monkeypatch, split=True)
        caller, events = threading.get_ident(), []
        other_started = threading.Event()

        def fn(lo, hi):
            on_caller = threading.get_ident() == caller
            events.append("start")
            if on_caller == (failing == "caller"):
                assert other_started.wait(timeout=10)
                events.append("raise")
                raise KeyError(failing)
            other_started.set()
            time.sleep(0.3)  # ample time for the failing thread to end the queue
            events.append("end")
            return np.zeros(hi - lo)

        with pytest.raises(KeyError, match=failing):
            parallel._split_rows(fn, 10 * 97)
        assert events == ["start", "start", "raise", "end"]


@pytest.mark.parametrize("cloud, n", [(drilled_cloud, 15), (hertz_cloud, 15)], ids=["drilled", "hertz"])
def test_shape_set_bytes_inline_and_split(monkeypatch, cloud, n):
    nodes = cloud()
    with monkeypatch.context() as m:
        force(m, split=False)
        inline = shape_bytes(nodes, n)
    with monkeypatch.context() as m:
        force(m, split=True)
        split = shape_bytes(nodes, n)
    assert inline[0] > 2000
    assert split == inline


def test_relax_bytes_inline_and_split(monkeypatch):
    refined = drilled_cloud(relax_iterations=0)
    with monkeypatch.context() as m:
        force(m, split=False)
        inline = relax(refined)
    with monkeypatch.context() as m:
        force(m, split=True)
        split = relax(refined)
    assert split.positions.tobytes() == inline.positions.tobytes()
    assert not np.array_equal(inline.positions, refined.positions)


def test_coincident_node_in_the_worker_half(monkeypatch):
    nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.05)
    interior = np.nonzero(nodes.interior_mask)[0]
    positions = nodes.positions.copy()
    positions[interior[-1]] = positions[interior[-2]]
    nodes = nodes.replace(positions=positions)
    errors = []
    for split in (False, True):
        with monkeypatch.context() as m:
            force(m, split)
            with pytest.raises(ValueError, match="coincident") as info:
                relax(nodes, 1)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def _child_shapes(nodes):
    build_shape_set(nodes, build_supports(nodes, 13))


def test_forked_child_builds_its_own_worker(monkeypatch):
    force(monkeypatch, split=True)
    nodes = hertz_cloud()
    build_shape_set(nodes, build_supports(nodes, 13))
    assert len(parallel._worker._threads) == 1
    child = multiprocessing.get_context("fork").Process(target=_child_shapes, args=(nodes,))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung on the parent's worker")
    assert child.exitcode == 0
