"""Every demo script runs to completion against the source tree."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of the CSVs each demo writes, byte for byte
CSV_SHA256 = {
    "05_bound_sweeps.py": {
        "sweep_t6_v3.csv":
            "fcfb0a00c198346ff3a246e3f6e83a54da39d4217b7dfc0df571b49772c8e1a2",
        "two_stage_objective_t6_k54_v3.csv":
            "1dc397ea196521dc2d5329d0e7e71b26845ac1405fa4889a2dc8420f83e9b062",
        "conditional_vs_plain_t6_v3.csv":
            "e48fb8cea2d7d95468a70762d99252c224073a965f711392cb248a981d079602",
    },
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # the demos write their CSVs to the working directory; -W error is the
    # suite's own warning policy, so a warning a demo raises fails it
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    for name, digest in CSV_SHA256.get(demo.name, {}).items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
