"""The README's CLI examples run as written: every `geoseries ...` line exits 0."""

import re
import shlex
from pathlib import Path

from geoseries.cli import main

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
