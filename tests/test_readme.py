"""The README's python example runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    shift, offset = (float(line) for line in capsys.readouterr().out.split())
    assert abs(shift + 5e-5) < 1e-5  # "~ -5e-5"
    assert abs(offset - 1e-3) < 1e-12  # "1e-3"
