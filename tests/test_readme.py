"""The README's "Library use" examples run as written, and its config block
is the default config.

The "Library use" section's `python` blocks run in order in one namespace, as
a reader who pastes them one after another would run them.
"""

import dataclasses
import json
import re
from pathlib import Path

from dfrcbeam.cli import ExperimentConfig, config_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def section_blocks(title: str, language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{language}\n(.*?)^```$", section, flags=re.M | re.S)


def test_readme_library_use_runs(capsys):
    blocks = section_blocks("Library use", "python")
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


def test_readme_config_block_is_the_default_config():
    [block] = section_blocks("Command line", "json")
    doc = json.loads(block)
    assert list(doc) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert config_from_dict(doc) == ExperimentConfig()
