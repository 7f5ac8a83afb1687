"""Locate the checkout's dycktile and refuse to measure anything else.

run.py and worker.py call prepare() before importing the package: it
exits 2, printing no result, when the interpreter runs under -O (which
deletes the program's assert checks: invert's product check and
build's uniqueness check), when the checkout has no src/dycktile, or
when the import would pick up another copy of the package.

spec() reads BENCHMARK.json, the one list of workloads and metrics.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def refuse(prog: str, message: str):
    print("%s: %s" % (prog, message), file=sys.stderr)
    sys.exit(2)


def prepare(prog: str) -> None:
    """Put the checkout's src/ first on sys.path, or exit 2."""
    if sys.flags.optimize:
        refuse(prog, "python -O (or PYTHONOPTIMIZE) strips the program's assert"
               " checks, so its numbers would not describe the program; run without it")
    if not (SRC / "dycktile" / "__init__.py").is_file():
        refuse(prog, "no dycktile package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import dycktile

    if Path(dycktile.__file__).resolve().parent != SRC / "dycktile":
        refuse(prog, "imported dycktile from %s, not from this checkout" % dycktile.__file__)


def spec() -> dict:
    """BENCHMARK.json at the checkout's root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def command_line() -> list[str]:
    """This process's command line, with the interpreter as typed."""
    return [os.path.basename(sys.orig_argv[0])] + sys.orig_argv[1:]
