"""The library examples run to their last line: demos 01 to 03 and the
README quickstart; the README's numerics table matches convint.Numerics,
and its variant tables the command line's."""

import contextlib
import dataclasses
import io
import re
import runpy
from pathlib import Path

import pytest

from convint import Numerics, cli

ROOT = Path(__file__).resolve().parents[1]


def run_captured(fn) -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fn()
    return buf.getvalue().splitlines()


@pytest.mark.parametrize("script", ["01_scalar_instance.py", "02_coupled_system.py"])
def test_demo_completes(script):
    lines = run_captured(
        lambda: runpy.run_path(str(ROOT / "demos" / script), run_name="__main__"))
    assert lines[-1].startswith("the upper iterates enclose the discrete solution within")


def test_grid_refinement_demo_completes():
    lines = run_captured(lambda: runpy.run_path(
        str(ROOT / "demos" / "03_grid_refinement.py"), run_name="__main__"))
    assert lines[-1] == ("  (same h; the band [R/2, R] moves outward and its "
                         "mass drops)")


def test_readme_quickstart_completes():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        flags=re.S)
    assert len(blocks) == 1
    code = compile(blocks[0], "README.md quickstart", "exec")
    lines = run_captured(lambda: exec(code, {"__name__": "__main__"}))
    assert len(lines) == 3
    assert lines[0] == "[1.44]"
    assert float(lines[-1]) == pytest.approx(1.28, abs=0.01)


def test_readme_numerics_table_lists_every_numerics_field():
    text = (ROOT / "README.md").read_text()
    table = text[text.index("Numerics block"):].split("\n\n")[1]
    keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert len(keys) == len(set(keys))
    assert set(keys) == {f.name for f in dataclasses.fields(Numerics)}


@pytest.mark.parametrize("section, heading", [("kernel", "Kernel variants"),
                                              ("weight", "Weight variants"),
                                              ("nonlin", "Response map variants")],
                         ids=["kernel", "weight", "nonlin"])
def test_readme_variant_tables_list_every_variant_and_key(section, heading):
    text = (ROOT / "README.md").read_text()
    table = text[text.index(heading):].split("\n\n")[1]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", table, flags=re.M)
    listed = {variant: sorted(re.findall(r"`(\w+)`", params)) for variant, params in rows}
    assert len(listed) == len(rows)
    assert listed == {variant: sorted(keys)
                      for variant, (_, keys) in cli._VARIANTS[section].items()}
