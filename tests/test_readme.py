"""The README's library snippets run as written."""

import re
from pathlib import Path

from cqarank.dataset import save_corpus
from cqarank.synthetic import conjunction_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippets() -> list[str]:
    """The ```python blocks of the README's "Library use" section, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_snippets_run_as_written(tmp_path, monkeypatch, capsys):
    data = conjunction_corpus(12, seed=0)
    save_corpus(str(tmp_path / "train.jsonl"), data[:32])
    save_corpus(str(tmp_path / "dev.jsonl"), data[-16:])
    monkeypatch.chdir(tmp_path)
    snippets = library_snippets()
    assert len(snippets) >= 2
    namespace: dict = {}
    for snippet in snippets:
        exec(compile(snippet, str(README), "exec"), namespace)
    assert re.fullmatch(r"MAP=\d+\.\d\d MRR=\d+\.\d\d\n", capsys.readouterr().out)
