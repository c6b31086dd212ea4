import os
import subprocess
import sys
from pathlib import Path

import navfuse

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    missing = [name for name in navfuse.__all__ if not hasattr(navfuse, name)]
    assert not missing, f"navfuse.__all__ names undefined attributes: {missing}"


def test_runtime_does_not_import_scipy(tmp_path):
    """A fresh interpreter imports navfuse and its CLI, simulates a short
    drive and fuses it with truth, and never loads scipy."""
    script = """
import sys
import navfuse
import navfuse.cli
sim, out = sys.argv[1:]
assert navfuse.cli.main(["simulate", "--profile", "circular", "--duration", "5",
                         "--seed", "1", "--out", sim]) == 0
assert navfuse.cli.main(["fuse", "--imu", sim + "/imu.csv", "--gnss", sim + "/gnss.csv",
                         "--truth", sim + "/truth.csv", "--out", out]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "sim"), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "rmse.csv").is_file()


def test_cli_module_runs_as_script():
    """``python -m navfuse.cli`` runs the command line, as the installed
    ``navfuse`` script does."""
    proc = subprocess.run(
        [sys.executable, "-m", "navfuse.cli", "--version"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == navfuse.__version__
