"""The audit's mutant list stays anchored: each old text is in src/ exactly once.

No mutant runs here; mutants/run.py runs them.
"""

import runpy
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
MUTANTS = runpy.run_path(str(REPO_ROOT / "mutants" / "cases.py"))["MUTANTS"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_each_mutants_old_text_occurs_once_under_src(mutant):
    assert mutant["file"].startswith("src/")
    text = (REPO_ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"] and mutant["reason"]
    assert all((REPO_ROOT / test_id.split("::")[0]).is_file() for test_id in mutant["tests"])


def test_mutant_names_are_distinct():
    names = [m["name"] for m in MUTANTS]
    assert len(set(names)) == len(names)
