"""Row batches split between the calling thread and the persistent worker.

The split must be invisible in the results: the stencils of
build_shape_set and the positions of relax are compared byte for byte
between a run forced inline (one CPU) and a run forced to split into
small, ragged chunks. Errors raised on the worker's half surface as on
one thread, and a forked child builds its own worker.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from mlsm2d import parallel
from mlsm2d.cases.drilled import DrilledBeamParams, hole_refined_cloud
from mlsm2d.cases.hertz import hertz_geometry, refinement_schedule
from mlsm2d.neighbors import build_supports
from mlsm2d.nodes import Rect, build_rectangle_grid
from mlsm2d.refine import refine_levels
from mlsm2d.relax import relax
from mlsm2d.shapes import build_shape_set
from mlsm2d.timing import PhaseTimer


def force(monkeypatch, split: bool) -> None:
    """Run every batch inline, or split every batch of two rows or more in chunks of 97."""
    monkeypatch.setattr(parallel, "_cpus", lambda: 2 if split else 1)
    if split:
        monkeypatch.setattr(parallel, "_MIN_ROWS", 2)
        monkeypatch.setattr(parallel, "_CHUNK", 97)


def drilled_cloud(relax_iterations=20):
    """The drilled case's default cloud: holes refined once, then relaxed."""
    p = DrilledBeamParams()
    return hole_refined_cloud(PhaseTimer(), p.rect, p.holes, 0.25, 1, relax_iterations)


def hertz_cloud():
    """The Hertz base grid refined toward the contact over four primary levels."""
    geom = hertz_geometry()
    H = 1000.0 * geom.half_width
    base = build_rectangle_grid(Rect(-H, H, -H, 0.0), 2.0 * H / 68)
    return refine_levels(base, refinement_schedule(geom.half_width, 4))


def shape_bytes(nodes, n):
    shapes = build_shape_set(nodes, build_supports(nodes, n))
    parts = [shapes.key, shapes.ranks, *shapes.key_rows.values(), *shapes.ambiguous.values()]
    return shapes.n_keys, [a.tobytes() for a in parts]


class TestSplitRows:
    def test_rows_ranges_threads_and_join(self, monkeypatch):
        force(monkeypatch, split=True)
        calls = []

        def fn(lo, hi):
            calls.append((lo, hi, threading.get_ident()))
            rows = np.arange(lo, hi, dtype=float)
            return {"a": rows[:, None] * [1.0, 2.0]}, rows.astype(int)

        joined, ints = parallel._split_rows(fn, 500)
        np.testing.assert_array_equal(joined["a"], np.arange(500.0)[:, None] * [1.0, 2.0])
        np.testing.assert_array_equal(ints, np.arange(500))
        main = threading.get_ident()
        assert [c[:2] for c in calls if c[2] == main] == [(0, 250)]
        worker = sorted(c[:2] for c in calls if c[2] != main)
        assert worker == [(250, 347), (347, 444), (444, 500)]

    @pytest.mark.parametrize("cpus, n", [(1, 10_000), (2, parallel._MIN_ROWS - 1)])
    def test_one_cpu_or_a_small_batch_runs_inline(self, monkeypatch, cpus, n):
        monkeypatch.setattr(parallel, "_cpus", lambda: cpus)
        calls = []

        def fn(lo, hi):
            calls.append((lo, hi, threading.get_ident()))
            return np.zeros(hi - lo)

        out = parallel._split_rows(fn, n)
        assert calls == [(0, n, threading.get_ident())]
        assert out.shape == (n,)

    def test_error_in_the_first_half_waits_for_the_worker(self, monkeypatch):
        force(monkeypatch, split=True)
        done = []

        def fn(lo, hi):
            if lo == 0:
                raise KeyError("head")
            done.append(hi)
            return np.zeros(hi - lo)

        with pytest.raises(KeyError, match="head"):
            parallel._split_rows(fn, 300)
        assert done == [247, 300]


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
