"""README's ```python blocks run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    assert BLOCKS, "README has no python example"
    monkeypatch.chdir(tmp_path)
    for n, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {n + 1}", "exec"), {})
