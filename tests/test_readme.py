"""The README's documented entry point runs against the current API."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

from splitgrad import encoders, trainer
from splitgrad.bench import RunConfig, profile_single_step

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


def test_step2_figure_is_the_measured_loss_phase_peak():
    # the README's step-2 figure is a count, so a change to the peak
    # cannot leave it stale: one metered cached step at that shape
    figures = re.findall(r"At n = 1024 and d = 16 that\s+is (\d+) floats",
                         README.read_text())
    assert len(figures) == 1, figures
    profile = profile_single_step(RunConfig(
        mode="cache", batch_size=1024, sub_batch_s=32, sub_batch_t=32,
        embed_dim=16))
    assert profile["loss_phase_peak"] == int(figures[0])


def test_pass_heights_are_the_plans():
    # the step1 / step3 pass heights the README cites are the ones the
    # plan gives each encoder at its sub-batch, on a batch of 1024 rows
    text = " ".join(README.read_text().split())
    cited = re.findall(r"(\d+) / (\d+) rows at sub-batch (\d+) on a "
                       r"([\d-]+)", text)
    assert len(cited) == 2, cited
    assert {c[3] for c in cited} == {"24-128-128-16", "24-32-16"}
    for step1, step3, b, widths in cited:
        widths = [int(w) for w in widths.split("-")]
        p = encoders.init_params(0, widths)
        R1, R3, _ = trainer._side_plan(p, np.zeros((1024, widths[0])),
                                       int(b))
        assert (R1, R3) == (int(step1), int(step3))
