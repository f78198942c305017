"""The README's CLI examples run as written, it states every cap the code uses, and it
names every key of each JSON document the CLI writes."""

import json
import re
import shlex
from pathlib import Path

from geoseries.cli import MAX_M_LIMIT, MAX_SCENE_FILE_BYTES, main
from geoseries.geometry import MAX_POLYGONS, MAX_SCENE_DENOMINATOR_BITS, MAX_SCENE_DIGITS
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
        ("digits", MAX_SCENE_DIGITS),
        ("--width", MAX_CANVAS_WIDTH_PX),
    ]:
        number = re.compile(rf"(?<![\d.]){value}(?!\d)")
        assert any(word in p and number.search(p) for p in paragraphs), (word, value)


def _object_keys(value):
    """Every key of every object in a parsed JSON document, not counting the
    keys of a params object, which are the construction's, not the layout's."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            if key != "params":
                yield from _object_keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _object_keys(item)


def test_readme_names_every_key_of_each_json_document(tmp_path, monkeypatch, capsys):
    """The templates in src/ and README's "JSON formats" are the two copies of each
    layout: every key a document holds is named in that document's README bullet."""
    text = README.read_text()
    section = text[text.index("\n## JSON formats\n") :]
    section = section[: section.index("\n## ", 1)]
    bullets = re.split(r"\n(?=- )", section)

    def bullet(start):
        (found,) = [b for b in bullets if b.startswith(start)]
        return found

    monkeypatch.chdir(tmp_path)
    documents = []
    for start, argv in [
        ("- `feasible --format json`", ["feasible", "--max-m", "4", "--format", "json"]),
        ("- `verify --format json`",
         ["verify", "--construction", "staircase", "--s", "1/2", "--layers", "2", "--format", "json"]),
    ]:
        assert main(argv) == 0
        documents.append((start, json.loads(capsys.readouterr().out)))
    argv = ["render", "--construction", "layered", "--m", "3", "--layers", "2", "--out", "pic.svg",
            "--emit-scene"]
    assert main(argv) == 0
    scene = json.loads((tmp_path / "pic.json").read_text())
    documents.append(("- scene files (`--emit-scene`)", scene))
    # a failing report: the file's echoed n lies
    (tmp_path / "lying.json").write_text(json.dumps({**scene, "params": {**scene["params"], "n": "6"}}))
    capsys.readouterr()
    assert main(["verify", "--from-scene", "lying.json"]) == 1
    failing = json.loads(capsys.readouterr().out)
    assert failing["check"] == "fail"
    documents.append(("- `verify --format json`", failing))
    for start, doc in documents:
        described = bullet(start)
        keys = set(_object_keys(doc))
        assert len(keys) > 5, start
        for key in keys:
            name = "expected_*" if key.startswith("expected_") else key
            assert re.search(rf"(?<![\w*]){re.escape(name)}(?![\w*])", described), (start, key)
