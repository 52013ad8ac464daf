"""The README's import block and `__all__` name only what the package has."""

import re
from pathlib import Path

import robustdata

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_points_import():
    text = README.read_text()
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_exists():
    missing = [name for name in robustdata.__all__ if not hasattr(robustdata, name)]
    assert missing == []
    namespace: dict = {}
    exec("from robustdata import *", namespace)
    assert set(robustdata.__all__) <= set(namespace)
