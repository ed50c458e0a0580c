"""Usage errors of ``examples/sweep_quickstart.py`` end like argparse's own:
exit status 2 and one ``error:`` line on stderr, never a traceback."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("mode", [[], ["--adaptive"]], ids=["sweep", "adaptive"])
@pytest.mark.parametrize("argv, named", [
    (["--workloads", "nope"], "'nope'"),
    (["--max-workers", "0", "--backend", "process"], "max_workers"),
], ids=["unknown-workload", "zero-workers"])
def test_bad_spec_is_a_usage_error(argv, named, mode):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "sweep_quickstart.py"), *argv, *mode],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0], proc.stderr
