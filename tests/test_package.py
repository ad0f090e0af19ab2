"""The package's public namespace and its documented example."""

from pathlib import Path

import branchlab


def test_every_exported_name_exists():
    # a name left in __all__ after its import is gone breaks `from branchlab import *`
    missing = [name for name in branchlab.__all__ if not hasattr(branchlab, name)]
    assert missing == []


def test_readme_python_api_block_runs(capsys):
    # the documented example, run as written: an API move that breaks it fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Python API", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    report_line, split_line = capsys.readouterr().out.splitlines()
    assert report_line.endswith(" True")  # the f2t r = 3 report passed
    assert len(set(split_line.split())) == 1  # delta_min = delta_max in the stable range
