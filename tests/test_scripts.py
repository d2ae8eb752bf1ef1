"""Smoke runs of the study scripts at tiny sizes: each exits 0 and prints a table."""

from pathlib import Path

import pytest

from conftest import run_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

RUNS = {
    # at resolution 16 the corner window spans less than half a decade
    "corner_exponent_study": ["--resolution", "32", "--thetas", "1.0"],
    "hk_gap_study": ["--resolution", "16", "--amplitudes", "0.0,0.02"],
    "identity_convergence": ["--ladder", "8,16", "--thetas", "1.0", "--dims", "1,2"],
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_prints_a_table(script):
    done = run_python(str(SCRIPTS / f"{script}.py"), *RUNS[script])
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    assert len(lines) >= 2  # a header and at least one row


def test_every_script_has_a_smoke_run():
    assert sorted(RUNS) == sorted(path.stem for path in SCRIPTS.glob("*.py"))
