"""The two-thread split of the label scan: ``nifti._halves`` runs the
second half of an array's first axis on a new thread when the array holds
at least ``_THREAD_VOXELS`` elements, joins it on every exit path and
raises a worker's exception in the caller; ``refine_full`` and
``evaluate_pair``, which run the scan, give the same bytes either way and
leave no thread behind.  Most tests here lower the threshold to 0, so the
96^3 phantom takes the threaded path too."""

import threading
import time

import numpy as np
import pytest

from hoarefine import RefinementConfig, evaluate_pair, fuse_labels, nifti, refine_full
from hoarefine.nifti import _halves


class Boom(Exception):
    pass


@pytest.fixture
def threaded(monkeypatch):
    monkeypatch.setattr(nifti, "_THREAD_VOXELS", 0)


def _recorder():
    seen = []

    def fn(lo, hi):
        seen.append((lo, hi, threading.current_thread()))
        return lo, hi
    return fn, seen


@pytest.mark.parametrize("n", [0, 1, 2, 7, 260])
def test_halves_covers_the_axis_in_order(threaded, n):
    fn, seen = _recorder()
    before = threading.active_count()
    assert _halves(np.empty((n, 3)), fn) == ((0, n // 2), (n // 2, n))
    assert sorted(s[:2] for s in seen) == [(0, n // 2), (n // 2, n)]
    threads = {s[2] for s in seen}
    assert threading.main_thread() in threads and len(threads) == 2
    assert threading.active_count() == before


def test_small_arrays_stay_on_the_calling_thread():
    fn, seen = _recorder()
    small = np.broadcast_to(np.uint8(0), (4, nifti._THREAD_VOXELS // 4 - 1))
    assert _halves(small, fn) == ((0, 2), (2, 4))
    assert {s[2] for s in seen} == {threading.main_thread()}
    fn, seen = _recorder()
    _halves(np.broadcast_to(np.uint8(0), (4, nifti._THREAD_VOXELS // 4)), fn)
    assert len({s[2] for s in seen}) == 2


def test_worker_exception_reaches_the_caller(threaded):
    boom = Boom("second half")

    def fn(lo, hi):
        if lo:
            raise boom
        return "first"

    before = threading.active_count()
    with pytest.raises(Boom) as err:
        _halves(np.empty(4), fn)
    assert err.value is boom
    assert threading.active_count() == before


def test_caller_exception_waits_for_the_worker(threaded):
    done = []

    def fn(lo, hi):
        if not lo:
            raise Boom("first half")
        time.sleep(0.05)
        done.append(hi)

    before = threading.active_count()
    with pytest.raises(Boom, match="first half"):
        _halves(np.empty(4), fn)
    assert done == [4]  # joined before the exception left
    assert threading.active_count() == before


@pytest.mark.parametrize("slice_adjust", [False, True])
def test_refine_and_evaluate_give_the_same_bytes_on_two_threads(phantom0, monkeypatch,
                                                                slice_adjust):
    vol, lms = phantom0
    fused = fuse_labels(vol)
    cfg = RefinementConfig(slice_adjust=slice_adjust)
    want = refine_full(fused, lms, cfg)
    want_rows = evaluate_pair(want, vol, lms).rows
    monkeypatch.setattr(nifti, "_THREAD_VOXELS", 0)
    before = threading.active_count()
    got = refine_full(fused.with_data(fused.data), lms, cfg)
    assert threading.active_count() == before
    assert evaluate_pair(got, vol.with_data(vol.data), lms).rows == want_rows
    assert threading.active_count() == before
    assert got.data.tobytes() == want.data.tobytes()
    assert got.data.strides == want.data.strides


@pytest.fixture
def failing_worker(threaded, monkeypatch):
    """Every ``_halves`` call, the scan's, raises ``boom`` from its worker
    thread."""
    boom = Boom("worker")
    real = nifti._halves

    def halves(a, fn):
        def guarded(lo, hi):
            if threading.current_thread() is not threading.main_thread():
                raise boom
            return fn(lo, hi)
        return real(a, guarded)

    monkeypatch.setattr(nifti, "_halves", halves)
    return boom


def test_worker_failure_in_refine_and_evaluate_reaches_the_caller(phantom0, failing_worker):
    vol, lms = phantom0
    before = threading.active_count()
    with pytest.raises(Boom) as err:
        refine_full(fuse_labels(vol), lms)
    assert err.value is failing_worker
    assert threading.active_count() == before
    with pytest.raises(Boom) as err:
        evaluate_pair(vol.with_data(vol.data), vol.with_data(vol.data), lms)
    assert err.value is failing_worker
    assert threading.active_count() == before
