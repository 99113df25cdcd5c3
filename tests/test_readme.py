"""README's `## Library` example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", library, re.S)
    scope = {}
    exec(compile(code, "README.md ## Library", "exec"), scope)
    report, certs = scope["report"], scope["certs"]
    assert report.steps == 30 and certs.ediss is scope["fit"]
    assert 0.0 <= report.R_T <= report.bound == certs.M_bar * report.chain
    assert capsys.readouterr().out == f"{report.steps} {report.R_T} {report.bound}\n"
