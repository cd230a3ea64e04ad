"""The layered end-to-end benchmark (see bench/README.md).

Self-contained: it drives ``repro`` only through public entry points,
measures end-to-end metrics with tracing off, and in a separate traced
run times the calls into each layer from outside.  Run from the repo
root as ``python -m bench <run|trace|check|compare>``; with no
sub-command it speaks the ``BENCHMARK.json`` contract
(``--workload W --seed N --seconds S --trace 0|1``).
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def add_src_to_path() -> None:
    """Make ``repro`` importable without ``PYTHONPATH=src`` (the package
    is not pip-installed in the sandbox, and the contract command sets no
    environment)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
