"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("k", range(len(BLOCKS)))
def test_readme_python_block_runs(k):
    exec(compile(BLOCKS[k], f"README.md python block {k + 1}", "exec"), {"__name__": "readme"})
