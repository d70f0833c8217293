"""The package's public names and the README's library quickstart."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

import fbauction

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in fbauction.__all__ if not hasattr(fbauction, name)]
    assert missing == []


@pytest.mark.acceptance  # solves two 400-level instances, about 2 s
def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)
    assert namespace["payoffs"] == pytest.approx([0.25, 0.25], abs=0.01)
    assert namespace["curves"][3, 100] == pytest.approx(0.5, abs=0.01)
