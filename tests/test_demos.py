"""The demo scripts print exactly the output pinned under tests/golden/demos."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = Path(__file__).parent / "golden" / "demos"


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_output(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{demo.stem}.txt").read_text()


def test_every_demo_is_pinned():
    pinned = sorted(p.stem for p in GOLDEN.glob("*.txt"))
    assert pinned == sorted(p.stem for p in DEMOS.glob("*.py"))
