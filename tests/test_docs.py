"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)  # the block writes model.json to the working directory
    exec(compile(block, "README.md quick start", "exec"), {})
    assert (tmp_path / "model.json").is_file()
