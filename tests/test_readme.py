"""The README's Python quick start runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start (Python)"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_python_quick_start_prints_its_comments():
    code = _quick_start()
    expected = [line.split("# ", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert expected == ["necessary MR2+", "possible",
                        "{'MR2+': 0.5, 'MR2-': 0.5}", "True"]
