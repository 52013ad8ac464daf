"""The README's import block, CLI table and `__all__` name only what the package has."""

import argparse
import re
from pathlib import Path

import robustdata
from robustdata.cli import build_parser

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


def test_readme_cli_table_matches_parser():
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([a-z0-9-]+)", section, re.MULTILINE)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(sub.choices)
