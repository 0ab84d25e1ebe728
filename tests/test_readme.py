import json
import os
import re
import shlex
import shutil
import textwrap

import numpy as np
import pytest

from qkdlab.cli import load_config, main
from qkdlab.states import QuartzPlate, plate_gamma

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _output_recipe(filename):
    """The one indented Python block of the Outputs list that reads
    ``out/<filename>``, dedented."""
    blocks = re.findall(r"^( +)```python\n(.*?)^\1```", _readme(), re.M | re.S)
    found = [textwrap.dedent(body) for _, body in blocks if f'"out/{filename}"' in body]
    assert len(found) == 1, f"README has {len(found)} recipes reading out/{filename}"
    return found[0]


def test_readme_library_example_runs(capsys):
    match = re.search(r"^## Library example\n+```python\n(.*?)^```", _readme(), re.M | re.S)
    assert match, "README has no Library example Python block"
    exec(compile(match.group(1), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # a quarter of the intervals intercepted: sifted error rate 1/16, under
    # the abort threshold
    assert float(lines[0]) == pytest.approx(1 / 16, abs=0.02)
    assert "0" in lines   # no residual error: Alice's and Bob's keys are equal
    assert float(lines[-1]) == pytest.approx(2 * np.sqrt(2), abs=1e-9)


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    match = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", _readme(), re.M | re.S)
    assert match, "README has no CLI sh block"
    shutil.copytree(CONFIG_DIR, tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    lines = match.group(1).splitlines()
    assert lines
    for line in lines:
        command, *argv = shlex.split(line)
        assert command == "qkdlab", line
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if argv[0] == "otp":
            # the ciphertext or plaintext, one line of lowercase hex
            assert re.fullmatch(r"[0-9a-f]+\n", out), (line, out)


@pytest.fixture
def preset_out(tmp_path, monkeypatch, capsys):
    """A working directory whose ``out/`` holds the outputs of a session
    preset and a tomo preset, as the README's CLI lines write them."""
    monkeypatch.chdir(tmp_path)
    for command, preset in (("session", "session_no_eve_imperfect"),
                            ("tomo", "tomo_partial_eve")):
        config = os.path.join(CONFIG_DIR, preset + ".json")
        assert main([command, "--config", config, "--out", "out"]) == 0
    capsys.readouterr()
    return tmp_path / "out"


def test_readme_sifted_recipe_counts_the_sifted_bits(preset_out):
    scope = {}
    exec(compile(_output_recipe("records.csv"), "README.md", "exec"), scope)
    summary = json.loads((preset_out / "summary.json").read_text())
    assert len(scope["sifted"]) == summary["n_sifted"] > 0
    agree = sum(row[3] for row in scope["sifted"])
    assert agree / len(scope["sifted"]) == pytest.approx(summary["sifted_agreement"])


def test_readme_bars_recipe_reads_16_bars(preset_out):
    scope = {}
    exec(compile(_output_recipe("density_matrix.json"), "README.md", "exec"), scope)
    assert len(scope["bars"]) == 16
    assert sum(value for row, col, value in scope["bars"] if row == col) == \
        pytest.approx(1.0, abs=1e-9)


def test_readme_config_example_runs(tmp_path, capsys):
    match = re.search(r"^### Config example\n+```json\n(.*?)^```", _readme(), re.M | re.S)
    assert match, "README has no Config example JSON block"
    body = json.loads(match.group(1))
    config = tmp_path / "config.json"
    config.write_text(match.group(1), encoding="utf-8")
    # 0 for a key, 2 for an abort at the error threshold; never a config error
    assert main(["session", "--config", str(config), "--out", str(tmp_path / "out")]) in (0, 2)
    capsys.readouterr()
    eve = load_config(str(config), "session").eve
    plate = QuartzPlate(**body["plate"])
    assert eve.basis_angle == plate.axis_angle_deg
    assert eve.strength == plate_gamma(plate)
