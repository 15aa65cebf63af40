import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_scripts_run_end_to_end(tmp_path):
    scan = run_script("gram_window_scan.py", "--gamma", "5", "--top", "16")
    assert scan.returncode == 0, scan.stderr
    assert "component along the unit constant, n =  2: -0.181097887849" in scan.stdout

    figures = run_script("reproduce_figures.py", "--outdir", str(tmp_path), "--resolution", "5")
    assert figures.returncode == 0, figures.stderr
    for stem in ("region-at-root", "region-sup5-eps05"):
        for suffix in (".csv", ".svg"):
            path = tmp_path / f"{stem}{suffix}"
            assert path.stat().st_size > 0
            assert str(path) in figures.stdout
