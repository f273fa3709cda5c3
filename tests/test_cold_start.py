"""Cold start: what a fresh interpreter loads for each step of the pipeline.

The import loads numpy only, and so does every command: refinement's
label boxes and inferior-horn components, PASD's nearest-voxel search,
the phantom's erosion and the normal tail of ``stats`` above 20 nonzero
pairs are numpy or plain Python code.  Each check runs in a new
interpreter, because this test process has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from hoarefine import wilcoxon_signed_rank

SRC = Path(__file__).resolve().parents[1] / "src"
PROBED = ("scipy", "scipy.stats", "scipy.ndimage", "scipy.spatial", "scipy.sparse")


def _loaded_after(code: str, cwd: Path) -> dict:
    """Run ``code`` in a fresh interpreter; which of PROBED it loaded."""
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps({{m: m in sys.modules for m in {PROBED!r}}}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _only(*loaded: str) -> dict:
    return {m: m in loaded for m in PROBED}


def test_import_loads_neither(tmp_path):
    loaded = _loaded_after("import hoarefine, hoarefine.cli", tmp_path)
    assert loaded == _only()


def test_refine_loads_neither(tmp_path):
    loaded = _loaded_after(
        "from hoarefine import fuse_labels, generate_phantom, refine_full\n"
        "vol, lms = generate_phantom(0)\n"
        "assert vol.dims == (96, 96, 96)\n"
        "assert (refine_full(fuse_labels(vol), lms).data == vol.data).all()\n",
        tmp_path)
    assert loaded == _only()


def test_cli_fuse_loads_neither(tmp_path):
    from hoarefine import generate_phantom, write_volume

    write_volume(generate_phantom(0)[0], tmp_path / "fine.nii.gz")
    loaded = _loaded_after(
        "from hoarefine.cli import main\n"
        "assert main(['fuse', 'fine.nii.gz', 'fused.nii.gz']) == 0\n",
        tmp_path)
    assert loaded == _only()
    assert (tmp_path / "fused.nii.gz.manifest.json").exists()


def test_cli_refine_loads_neither(tmp_path):
    from hoarefine import fuse_labels, generate_phantom, write_landmarks, write_volume

    vol, lms = generate_phantom(0)
    write_volume(fuse_labels(vol), tmp_path / "fused.nii.gz")
    write_landmarks(lms, tmp_path / "lm.json")
    loaded = _loaded_after(
        "from hoarefine.cli import main\n"
        "assert main(['refine', 'fused.nii.gz', 'fine.nii.gz',\n"
        "             '--landmarks', 'lm.json']) == 0\n",
        tmp_path)
    assert loaded == _only()
    assert (tmp_path / "fine.nii.gz.manifest.json").exists()


def test_cli_evaluate_loads_neither(tmp_path):
    from hoarefine import generate_phantom, write_landmarks, write_volume

    vol, lms = generate_phantom(0)
    write_volume(vol, tmp_path / "fine.nii.gz")
    write_landmarks(lms, tmp_path / "lm.json")
    loaded = _loaded_after(
        "from hoarefine.cli import main\n"
        "assert main(['evaluate', 'fine.nii.gz', 'fine.nii.gz',\n"
        "             '--landmarks', 'lm.json', '--out', 'r.json']) == 0\n",
        tmp_path)
    assert loaded == _only()
    assert (tmp_path / "r.json.manifest.json").exists()


def test_cli_roundtrip_loads_neither(tmp_path):
    from hoarefine import generate_phantom, write_landmarks, write_volume

    vol, lms = generate_phantom(0)
    write_volume(vol, tmp_path / "fine.nii.gz")
    write_landmarks(lms, tmp_path / "lm.json")
    loaded = _loaded_after(
        "from hoarefine.cli import main\n"
        "assert main(['roundtrip', 'fine.nii.gz', '--landmarks', 'lm.json',\n"
        "             '--out', 'r.json']) == 0\n",
        tmp_path)
    assert loaded == _only()
    assert (tmp_path / "r.json.manifest.json").exists()


def test_cli_phantom_erosion_loads_neither(tmp_path):
    loaded = _loaded_after(
        "from hoarefine.cli import main\n"
        "assert main(['phantom', 'eroded.nii.gz', '--degrade', 'erosion',\n"
        "             '--amount', '1']) == 0\n",
        tmp_path)
    assert loaded == _only()
    assert (tmp_path / "eroded.landmarks.json").exists()


def test_cli_stats_loads_neither(tmp_path):
    # 25 rows take the normal approximation, 8 the exact permutation null
    for n in (25, 8):
        for name, shift in ((f"a{n}.csv", 0.05), (f"b{n}.csv", 0.0)):
            (tmp_path / name).write_text("subject,dice,pasd\n" + "".join(
                f"s{i},{0.8 + 0.01 * i + shift},{0.5 + 0.02 * i * i - shift}\n"
                for i in range(n)))
    loaded = _loaded_after(
        "from hoarefine.cli import main\n"
        "for n in (25, 8):\n"
        "    assert main(['stats', f'a{n}.csv', f'b{n}.csv', '--out', f's{n}.json']) == 0\n",
        tmp_path)
    assert loaded == _only()
    assert json.loads((tmp_path / "s25.json").read_text())["results"][0]["significant"]


@pytest.mark.parametrize("ties", [False, True])
def test_large_sample_p_is_norm_sf_bit_for_bit(ties):
    rng = np.random.default_rng(3)
    n = 40
    d = rng.integers(-9, 12, size=n).astype(float) if ties \
        else rng.normal(0.4, 1.0, size=n)
    d[d == 0] = 1.0
    w, p = wilcoxon_signed_rank(d, np.zeros(n))

    ranks = scipy.stats.rankdata(np.abs(d))
    _, t = np.unique(np.abs(d), return_counts=True)
    assert (t.max() > 1) == ties
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float(np.sum(t**3 - t)) / 48.0
    z = (ranks[d > 0].sum() - n * (n + 1) / 4.0) / np.sqrt(var)
    assert w == ranks[d > 0].sum()
    assert p == 2.0 * scipy.stats.norm.sf(abs(z))
