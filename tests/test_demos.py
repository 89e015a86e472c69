"""Smoke test: each fast demo runs as a script and exits 0.

The demos are run as their README says, `python3 demos/NAME.py`, in a
fresh interpreter with src/ on the path and an empty working directory,
so a demo that writes beside itself or imports from the repository root
fails here. The five take about 5 s together. `train_and_evaluate.py`
takes about 26 s, a miniature of the whole pipeline that the acceptance
tests already cover, so it is left out of this tier.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAST_DEMOS = ["attention_reordering.py", "contrastive_mining.py", "gradient_checking.py",
              "metrics_tour.py", "synthetic_data_tour.py"]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_exits_zero(tmp_path, demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert list(tmp_path.iterdir()) == []
