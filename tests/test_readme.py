"""The README's documented entry point runs against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading):
    # the first python block between the heading and the next one
    section = README.read_text().split(f"\n{heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_prints_a_metered_step():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_block("## Library"), str(README), "exec"), {})
    loss, fwd_rows, act_peak = out.getvalue().split()
    assert float(loss) > 0
    # 256 anchors and 256 targets, each encoded in step1 and in step3
    assert int(fwd_rows) == 2 * (256 + 256)
    assert int(act_peak) > 0
