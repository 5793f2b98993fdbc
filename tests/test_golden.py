"""Stored outputs of all three commands.

Each case runs one command and compares its CSV with a file in
`tests/golden/`.  Comment headers, the column line, row counts and the
integer-valued columns must match exactly; every other cell must match within
1e-12 * |stored| + 1e-12 * (largest magnitude in its column), so that a
beampattern null compares on the scale of the peak.  That admits last-digit
moves from another numpy or BLAS build, and fails a changed algorithm,
stopping rule or seed mapping.

Regenerating a stored file changes check data: say why, with the old and new
cells, in CHANGES.md.  To rewrite every file with the package on the path:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from dfrcbeam.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# the CI smoke config, with three trials and two SNRs
TINY = {"n_tx": 12, "n_rf": 4, "n_streams": 2, "n_rx": 2, "n_paths": 3,
        "target_angles_deg": [0.0], "num_trials": 3,
        "beampattern_grid_deg": [-90.0, 90.0, 1.0],
        "eta_values": [0.2, 0.5, 0.9], "snr_db_values": [0, 10]}

# stored file -> (command arguments, with "TINY" for the tiny config file;
# the worker counts that must each reproduce the file)
CASES = {
    "rate_sweep_tiny_seed1.csv": (["rate-sweep", "--config", "TINY", "--seed", "1"], (1, 2)),
    "rate_sweep_tiny_seed777.csv": (["rate-sweep", "--config", "TINY", "--seed", "777"], (1, 2)),
    "beampattern_tiny_eta0.4_averaged.csv": (
        ["beampattern", "--config", "TINY", "--eta", "0.4", "--average-trials"], (1,)),
    "beampattern_tiny_eta0.4.csv": (["beampattern", "--config", "TINY", "--eta", "0.4"], (1,)),
    "convergence_tiny_eta0.3.csv": (["convergence", "--config", "TINY", "--eta", "0.3"], (1,)),
    "convergence_tiny_eta0.9.csv": (["convergence", "--config", "TINY", "--eta", "0.9"], (1,)),
    "convergence_reference_eta0.6.csv": (["convergence", "--eta", "0.6"], (1,)),
}

EXACT_COLUMNS = ("iteration", "mean_iterations")
RTOL = 1e-12


def run_case(name: str, workers: int, workdir: Path) -> str:
    """The CSV text that case `name` writes with `workers` workers."""
    tiny = workdir / "tiny.json"
    tiny.write_text(json.dumps(TINY))
    args, _ = CASES[name]
    argv = [str(tiny) if arg == "TINY" else arg for arg in args]
    out = workdir / f"w{workers}_{name}"
    status = main([*argv, "--workers", str(workers), "--out", str(out)])
    assert status == 0, f"{name} exited with {status}"
    return out.read_text()


def _split(text: str):
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    columns, *rows = [line for line in lines if not line.startswith("#")]
    return comments, columns.split(","), [row.split(",") for row in rows]


def mismatches(text: str, stored: str) -> list[str]:
    """How `text` differs from the `stored` CSV under the rules above."""
    comments, columns, rows = _split(text)
    ref_comments, ref_columns, ref_rows = _split(stored)
    if (comments, columns) != (ref_comments, ref_columns):
        return [f"header {comments + columns} != {ref_comments + ref_columns}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != {len(ref_rows)}"]
    found = []
    for col, column in enumerate(columns):
        got = [row[col] for row in rows]
        ref = [row[col] for row in ref_rows]
        if column in EXACT_COLUMNS:
            found += [f"row {r} {column}: {g} != {s}"
                      for r, (g, s) in enumerate(zip(got, ref)) if g != s]
            continue
        ref_values = [float(s) for s in ref]
        scale = RTOL * max(abs(v) for v in ref_values)
        found += [f"row {r} {column}: {g} != {s}"
                  for r, (g, s, v) in enumerate(zip(got, ref, ref_values))
                  if not abs(float(g) - v) <= RTOL * abs(v) + scale]
    return found


@pytest.mark.parametrize("name, workers", [(name, workers) for name, (_, counts) in CASES.items()
                                           for workers in counts])
def test_command_reproduces_its_stored_output(name, workers, tmp_path):
    found = mismatches(run_case(name, workers, tmp_path), (GOLDEN / name).read_text())
    assert not found, found[:5]


def test_mismatches_catches_a_moved_cell():
    stored = "# eta=0.5\nangle_deg,gain\n-1,2.5\n0,1e-30\n1,2.5\n"
    assert mismatches(stored, stored) == []
    assert mismatches(stored.replace("1e-30", "1e-13"), stored) == []  # 1e-12 * peak
    assert mismatches(stored.replace("1e-30", "1e-11"), stored)
    assert mismatches(stored.replace("2.5\n0", "2.5000000001\n0"), stored)
    assert mismatches(stored.replace("# eta=0.5", "# eta=0.6"), stored)
    assert mismatches(stored + "2,2.5\n", stored)
    trace = "iteration,objective\n0,3.0\n1,2.0\n"
    assert mismatches(trace.replace("1,2.0", "2,2.0"), trace)
    assert mismatches(trace.replace("3.0", "nan"), trace)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in CASES:
            (GOLDEN / case).write_bytes(run_case(case, 1, Path(scratch)).encode("ascii"))
            print(f"wrote {GOLDEN / case}", file=sys.stderr)
