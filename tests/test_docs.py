"""The README's examples run as written, and its config key block matches
the code."""

import re
from dataclasses import fields
from pathlib import Path

from graphrf import ExperimentConfig
from graphrf.config import RUN_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)  # the block writes model.json to the working directory
    exec(compile(block, "README.md quick start", "exec"), {})
    assert (tmp_path / "model.json").is_file()


def test_readme_key_block_names_the_runs_that_read_each_key():
    # every ExperimentConfig field once, under a "# read by:" line naming
    # exactly the runs whose RUN_KEYS row holds it
    text = README.read_text(encoding="utf-8")
    block = text.split("All keys with their defaults:\n\n```\n", 1)[1].split("```", 1)[0]
    runs, listed = None, []
    for line in block.splitlines():
        if line.startswith("# read by: "):
            runs = set(line[len("# read by: "):].split(" (")[0].split(", "))
        elif re.match(r"\w+ = ", line):
            key = line.split(" = ")[0]
            listed.append(key)
            assert runs == {run for run, keys in RUN_KEYS.items() if key in keys}, key
    assert sorted(listed) == sorted(f.name for f in fields(ExperimentConfig))
