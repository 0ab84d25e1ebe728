import os
import re

import numpy as np
import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_library_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    match = re.search(r"^## Library example\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no Library example Python block"
    exec(compile(match.group(1), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # a quarter of the intervals intercepted: sifted error rate 1/16, under
    # the abort threshold
    assert float(lines[0]) == pytest.approx(1 / 16, abs=0.02)
    assert "0" in lines   # no residual error: Alice's and Bob's keys are equal
    assert float(lines[-1]) == pytest.approx(2 * np.sqrt(2), abs=1e-9)
