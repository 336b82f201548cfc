"""README's "Library use" example runs as written."""

import pathlib

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, f"{README}:Library use", "exec"), {})
    dist, recursion_max = map(float, capsys.readouterr().out.split())
    assert np.isfinite(dist)
    assert recursion_max < 1e-10
