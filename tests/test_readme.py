"""The README's "Library use" examples run as written.

The section's `python` blocks run in order in one namespace, as a reader who
pastes them one after another would run them.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_readme_library_use_runs(capsys):
    blocks = library_use_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    converged, iterations, rate, unit = capsys.readouterr().out.split()
    assert converged == "True" and int(iterations) >= 1 and float(rate) > 0
    assert unit == "bits/s/Hz"
    assert namespace["rates"].shape == (3,)
    assert namespace["rates"][1] == namespace["achievable_rate"](
        namespace["h"], namespace["designs"].products[1], namespace["w_com"], snr_db=0.0)
