"""Fail when a single test phase in a pytest ``--durations`` report is slow.

ROADMAP aim 3: *a slow test is a bug report* - the 121 s
``test_lockstep_soundness_under_loss`` turned out to be an engine bug.
The tier-1 CI job runs with ``--durations=15`` and pipes its output
here, so the next 100-second test is caught the day it lands.

Stdlib only.  Usage::

    python -m pytest tests/ -q --durations=15 | tee pytest.log
    python scripts/check_durations.py pytest.log
"""

from __future__ import annotations

import re
import sys
from typing import List, Tuple

#: budget for one test phase, in seconds
MAX_SECONDS = 20.0
#: ``12.34s call     tests/x.py::test_y`` (pytest's slowest-durations rows)
ROW = re.compile(r"^(\d+(?:\.\d+)?)s\s+(call|setup|teardown)\s+(\S+)")


def slow_rows(lines) -> List[Tuple[float, str, str]]:
    rows = []
    for line in lines:
        match = ROW.match(line)
        if match and float(match.group(1)) > MAX_SECONDS:
            rows.append((float(match.group(1)), match.group(2), match.group(3)))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: check_durations.py PYTEST_LOG", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        lines = fh.readlines()
    if not any("slowest" in line and "durations" in line for line in lines):
        print("no '--durations' report in the log", file=sys.stderr)
        return 2
    slow = slow_rows(lines)
    for seconds, phase, test in slow:
        print(f"SLOW: {test} ({phase}) took {seconds:.2f}s > {MAX_SECONDS:g}s")
    if slow:
        return 1
    print(f"durations ok: no test phase above {MAX_SECONDS:g}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
