"""Run the mutants of cases.py: each must make its listed tests fail.

    python mutants/run.py [NAME ...]

For each mutant (all of them, or those named), src/ and tests/ are copied
into a temporary directory, the mutant's one replacement is applied there,
and its test ids run with ``python -m pytest -x -q``, one mutant at a time.
One JSON line is printed per mutant: its name, "killed" or "survived", and
the seconds its tests took.  The listed tests first run once on an
unmutated copy, which must pass them; else a broken test would kill every
mutant.  The exit status is 1 if a mutant survived, and 2 if a name is
unknown, the copy fails its tests or an old text is not there once.

Stdlib only; it reads no git and fetches nothing.  The repository itself
is never changed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from cases import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
# read by tests, never written: linked into each copy, not copied
SHARED = ("fixtures", "perfbench", "README.md")


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest)
    for name in SHARED:
        os.symlink(ROOT / name, dest / name)


def refuse(message: str):
    print(message, file=sys.stderr)
    sys.exit(2)


def mutate(dest: Path, mutant: dict) -> None:
    """Apply the mutant's replacement in dest; exit 2 unless its old text occurs once."""
    path = dest / mutant["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant["old"])
    if count != 1:
        refuse(f"{mutant['name']}: its old text occurs {count} times in {mutant['file']}, not once")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def pytest(dest: Path, test_ids) -> tuple[int, float]:
    """(exit status, seconds) of the test ids run in dest."""
    env = {**os.environ, "PYTHONPATH": str(dest / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *test_ids],
        cwd=dest, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode, time.perf_counter() - start


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m["name"] in names]
    if unknown := set(names) - {m["name"] for m in mutants}:
        refuse(f"no mutant named {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        test_ids = sorted({t for m in mutants for t in m["tests"]})
        status, _ = pytest(clean, test_ids)
        if status:
            refuse(f"the unmutated copy fails the listed tests (pytest exit {status})")
        survived = 0
        for n, mutant in enumerate(mutants):
            dest = Path(tmp) / f"m{n}"
            copy_tree(dest)
            mutate(dest, mutant)
            status, seconds = pytest(dest, mutant["tests"])
            # 1: a test failed, 2: a module failed to import; the clean run
            # rules out the other statuses (a bad id, no test run)
            result = "killed" if status in (1, 2) else "survived"
            survived += result == "survived"
            print(json.dumps({"name": mutant["name"], "result": result,
                              "seconds": round(seconds, 2)}), flush=True)
            shutil.rmtree(dest)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
