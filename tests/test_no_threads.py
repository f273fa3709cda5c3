"""The package starts no thread: with ``threading.Thread.start`` made to
raise, a label scan of 2^22 voxels and the refine and evaluation of the
96^3 phantom finish on the calling thread."""

import threading

import numpy as np
import pytest

from hoarefine import RefinementConfig, evaluate_pair, fuse_labels, refine_full
from hoarefine.nifti import _label_scan


@pytest.fixture
def no_threads(monkeypatch):
    def start(self):
        raise AssertionError(f"the package started thread {self.name}")
    monkeypatch.setattr(threading.Thread, "start", start)


def test_label_scan_of_2_22_voxels_starts_no_thread(no_threads):
    data = np.zeros((128, 256, 128), dtype=np.uint8)
    data[3, 200, 127] = 9
    lo, hi, words = _label_scan(data)
    assert (lo, hi) == (0, 9)
    assert [np.flatnonzero(w & (1 << 9)).tolist() for w in words] == [[3], [200], [127]]


@pytest.mark.parametrize("slice_adjust", [False, True])
def test_refine_and_evaluate_start_no_thread(phantom0, no_threads, slice_adjust):
    vol, lms = phantom0
    pred = refine_full(fuse_labels(vol), lms, RefinementConfig(slice_adjust=slice_adjust))
    assert evaluate_pair(pred, vol, lms).rows
