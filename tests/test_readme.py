"""The README's library example runs as printed and reports a passing check."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_passes():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    passed, margin, tolerance = out.getvalue().split()
    assert passed == "True"
    assert float(margin) >= -float(tolerance)
