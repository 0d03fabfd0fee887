"""The library surface that callers rely on: the README example and ``morfo.__all__``."""

from pathlib import Path

import morfo

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    lemmas = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert lemmas == ["vaca"]


def test_every_exported_name_resolves():
    assert [name for name in morfo.__all__ if not hasattr(morfo, name)] == []
