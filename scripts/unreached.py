"""List the functions of ``src/evolflow`` that no command, criterion or
benchmark workload reaches.

    python3 scripts/unreached.py

Under ``sys.settrace`` and ``threading.settrace`` it runs the acceptance
tests, ``tests/test_cli.py``, ``tests/test_cli_outputs.py`` and
``cli_outputs.write_outputs`` at seed 1 (every instance config of every
benchmark workload through the CLI).  It then prints each function defined
in ``src/evolflow`` that was never entered; lambdas, comprehensions and
class bodies are not counted.  The exit code is 1 if any function other
than those in ``KEPT`` was never entered.

Tracing slows the runs several times over, so an acceptance criterion with
a time limit may fail here; the pytest exit code is printed, and a failed
test can only add functions to the list, never hide one.
"""

from __future__ import annotations

import inspect
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "evolflow"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import pytest  # noqa: E402

import cli_outputs  # noqa: E402

#: unreached functions that stay: `perfbench/spans.py` patches both, and
#: `jacobian` is the tests' reference for the lattice derivatives
KEPT = {"lp_space.TimeGrid.with_times", "vector_field._SplineField.jacobian"}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> qualified name of every named function in SRC."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    # class bodies run on import, before the trace starts
                    if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                        found[(str(path), const.co_firstlineno)] = f"{path.stem}.{const.co_qualname}"
    return found


def main() -> int:
    entered: set[tuple[str, int]] = set()
    prefix = str(SRC)

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno))

    sys.settrace(trace)
    threading.settrace(trace)
    try:
        tests = [str(ROOT / "tests" / name) for name in ("test_acceptance.py", "test_cli.py", "test_cli_outputs.py")]
        status = pytest.main(["-q", "-p", "no:cacheprovider"] + tests)
        with tempfile.TemporaryDirectory() as tmp:
            outputs = cli_outputs.write_outputs(Path(tmp), [1], None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"pytest exit code {int(status)}, cli_outputs exit code {outputs}")

    unreached = sorted(name for key, name in defined_functions().items() if key not in entered)
    for name in unreached:
        print(f"unreached: {name}{'  (kept)' if name in KEPT else ''}")
    return 1 if set(unreached) - KEPT else 0


if __name__ == "__main__":
    sys.exit(main())
