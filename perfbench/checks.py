"""Output checks the benchmark applies to every CLI invocation.

Each check raises `CheckError` with a one-line reason; the caller counts the
invocation as failed.  The checks read the CSV and sidecar only, so they do
not depend on the package's internals.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RATE_COLUMNS = ("eta", "snr_db", "mean_rate", "std_rate",
                "mean_comm_err", "mean_radar_err", "mean_iterations")
PATTERN_COLUMNS = ("angle_deg", "gain")

# rate rows move by ~1e-15 relative across BLAS thread counts and by at most a
# few ulps under an exact algebraic rewrite of a block solve
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12

# threshold of the beam-steering-accuracy acceptance check
PEAK_DEVIATION_LIMIT_DEG = 2.0


class CheckError(Exception):
    """An invocation's output is malformed or wrong."""


def read_table(path, columns) -> list[list[float]]:
    """Rows of a CLI CSV, skipping `#` header lines; every cell must be finite."""
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc
    body = [line for line in lines if not line.startswith("#")]
    if not body or tuple(body[0].split(",")) != tuple(columns):
        raise CheckError(f"{path}: header is not {','.join(columns)}")
    rows = []
    for number, line in enumerate(body[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise CheckError(f"{path}: row {number} has {len(cells)} cells")
        try:
            row = [float(cell) for cell in cells]
        except ValueError as exc:
            raise CheckError(f"{path}: row {number}: {exc}") from exc
        if not all(math.isfinite(value) for value in row):
            raise CheckError(f"{path}: row {number} has a non-finite cell")
        rows.append(row)
    if not rows:
        raise CheckError(f"{path}: no data rows")
    return rows


def read_sidecar(path, expected_runs: int) -> dict:
    """The `.meta.json` sidecar, with its run counters checked."""
    try:
        meta = json.loads(Path(f"{path}.meta.json").read_text(encoding="ascii"))
        converged, total = int(meta["converged_runs"]), int(meta["total_runs"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"{path}.meta.json unreadable: {exc}") from exc
    if total != expected_runs or not 0 <= converged <= total:
        raise CheckError(f"{path}.meta.json reports {converged}/{total} runs, "
                         f"expected {expected_runs} designs")
    return meta


def compare_to_reference(rows, reference_rows) -> None:
    """Rate-sweep rows against a stored reference, cell by cell."""
    if len(rows) != len(reference_rows):
        raise CheckError(f"{len(rows)} rows, reference has {len(reference_rows)}")
    for row, ref in zip(rows, reference_rows):
        for name, value, expected in zip(RATE_COLUMNS, row, ref):
            if abs(value - expected) > REFERENCE_RTOL * abs(expected) + REFERENCE_ATOL:
                raise CheckError(f"{name} at eta={ref[0]:g}: {value!r} differs from "
                                 f"reference {expected!r}")


def peak_deviations(rows, targets) -> list[float]:
    """Distance from each target to the nearest local maximum of the pattern.

    Same rule as the package's acceptance check: an interior point not
    exceeded by either neighbour, a plateau counted once at its leftmost point.
    """
    peaks = []
    for k in range(1, len(rows) - 1):
        gain = rows[k][1]
        if gain >= rows[k - 1][1] and gain >= rows[k + 1][1]:
            if not (peaks and peaks[-1][0] == k - 1):
                peaks.append([k, rows[k][0]])
            else:
                peaks[-1][0] = k  # extend the plateau, keep its leftmost angle
    if not peaks:
        return [math.inf] * len(targets)
    return [min(abs(angle - t) for _, angle in peaks) for t in targets]


def check_peaks(rows, targets) -> list[float]:
    deviations = peak_deviations(rows, targets)
    worst = max(deviations)
    if worst > PEAK_DEVIATION_LIMIT_DEG:
        raise CheckError(f"beam peak {worst:.3f} deg from a target "
                         f"(limit {PEAK_DEVIATION_LIMIT_DEG} deg)")
    return deviations
