"""The README stays in step with the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layout_table_lists_every_module():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` ", section, flags=re.MULTILINE)
    modules = {p.stem for p in (ROOT / "src" / "zonalprop").glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)
