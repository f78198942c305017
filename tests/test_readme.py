"""The README's CLI examples run as written, and it states every cap the code uses."""

import re
import shlex
from pathlib import Path

from geoseries.cli import MAX_M_LIMIT, MAX_SCENE_FILE_BYTES, main
from geoseries.geometry import MAX_POLYGONS, MAX_SCENE_DENOMINATOR_BITS
from geoseries.rational import MAX_DENOMINATOR_BITS
from geoseries.render import MAX_CANVAS_WIDTH_PX

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [
        shlex.split(line, comments=True)
        for line in block.group(1).splitlines()
        if line.startswith("geoseries ")
    ]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)  # the examples write pic.svg, pic.json and m4.svg
    for words in commands:  # in order: a later line reads what an earlier one wrote
        assert main(words[1:]) == 0, shlex.join(words)


def test_readme_states_every_cap_the_code_uses():
    """Each cap's value is written in a paragraph of the README's cap paragraphs or
    its JSON formats section that names what it caps, so a changed constant fails here
    until the README follows."""
    text = README.read_text()
    start = text.index("`feasible --max-m` is capped")
    caps = text[start : text.index("\n## Notes")]
    paragraphs = re.split(r"\n\s*\n|\n(?=- )", caps)
    assert any(p.startswith("Pictures and tables are capped") for p in paragraphs)
    for word, value in [
        ("--max-m", MAX_M_LIMIT),
        ("--layers", MAX_DENOMINATOR_BITS),
        ("polygons", MAX_POLYGONS),
        ("vertices", 3 * MAX_POLYGONS),
        ("bytes", MAX_SCENE_FILE_BYTES),
        ("lcm", MAX_SCENE_DENOMINATOR_BITS),
        ("--width", MAX_CANVAS_WIDTH_PX),
    ]:
        number = re.compile(rf"(?<![\d.]){value}(?!\d)")
        assert any(word in p and number.search(p) for p in paragraphs), (word, value)
