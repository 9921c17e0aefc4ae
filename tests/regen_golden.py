"""Rewrite the golden CLI records under ``tests/golden/`` from the current CLI.

Each file there is one pin set: a ``note`` on how its outputs were first
captured, and its ``records``, each an ``argv`` with the ``exit`` code,
``stdout`` and ``stderr`` that ``swapqkd.cli.main`` gives it.  A stream is
stored as its lines, each keeping its line break, so joining them gives back
the exact text, and a moved number is a one-line diff.

This script reruns every stored argv in order and rewrites the files; it
takes no options, and ``git diff tests/golden/`` shows what moved.  Run it
where ``swapqkd`` imports, for instance from the repository root::

    PYTHONPATH=src python tests/regen_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from swapqkd import cli

GOLDEN_DIR = Path(__file__).parent / "golden"


def record(argv: list[str]) -> dict:
    """The record of ``cli.main(argv)`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue().splitlines(keepends=True),
            "stderr": err.getvalue().splitlines(keepends=True)}


def dumps(doc) -> str:
    """A record or a pin set as its file text."""
    return json.dumps(doc, indent=2) + "\n"


def pin_sets() -> dict[str, dict]:
    """Each golden file's pin set, by file stem."""
    return {path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(GOLDEN_DIR.glob("*.json"))}


def main() -> None:
    for name, doc in pin_sets().items():
        doc["records"] = [record(rec["argv"]) for rec in doc["records"]]
        (GOLDEN_DIR / f"{name}.json").write_text(dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main()
