"""The README's code runs against the library as it stands."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library tour"))
    start += len("```python\n")
    block = text[start:text.index("```", start)]
    exec(compile(block, "README.md", "exec"), {})
