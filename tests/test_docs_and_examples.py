"""Documentation and example scripts actually work.

* the package docstring's doctest runs and passes;
* every example script under examples/ executes cleanly (the quickstart
  at full size, the heavier ones are exercised through their importable
  main() with the module's own defaults only when fast).
"""

import doctest
import pathlib
import subprocess
import sys

import pytest

import repro

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def test_package_doctest():
    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 1


def test_estimate_strict():
    from repro.core import EfficientCSA, EstimateUnavailableError
    from tests.conftest import two_proc_spec

    csa = EfficientCSA("a", two_proc_spec())
    with pytest.raises(EstimateUnavailableError):
        csa.estimate_strict()


@pytest.mark.parametrize("script", ["quickstart.py", "lossy_links.py", "calibration.py", "offline_analysis.py", "why_this_wide.py", "live_cluster.py"])
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_all_examples_present():
    found = {p.name for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "ntp_hierarchy.py",
        "cristian_probes.py",
        "drift_comparison.py",
        "lossy_links.py",
        "fleet_monitor.py",
        "calibration.py",
        "offline_analysis.py",
        "why_this_wide.py",
        "live_cluster.py",
    } <= found


@pytest.mark.parametrize("doc", ["API.md", "RUNTIME.md", "GLOSSARY.md"])
def test_documented_names_exist(doc):
    """Every back-ticked CamelCase name in the docs is still in ``src/repro``.

    A rename or deletion must update the docs in the same change; the
    check is textual on purpose (a name may be a class, an exception, a
    type alias or a dataclass field's owner).  A ``path::Name`` span is
    looked up in the file it names instead.
    """
    import re

    root = pathlib.Path(__file__).resolve().parent.parent
    text = (root / "docs" / doc).read_text()
    camel = re.compile(r"\b[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+\b")
    source = "\n".join(
        path.read_text() for path in sorted((root / "src" / "repro").rglob("*.py"))
    )
    checked, dangling = 0, []
    for span in re.findall(r"`([^`\n]+)`", text):
        path, sep, _rest = span.partition("::")
        corpus = (root / path).read_text() if sep else source
        for name in camel.findall(span):
            checked += 1
            if not re.search(rf"\b{name}\b", corpus):
                dangling.append(name)
    assert checked, f"no CamelCase names found in {doc}"
    assert dangling == [], f"{doc} names nothing in the source defines: {sorted(set(dangling))}"


def test_retired_names_stay_retired():
    """The source-only backend and the estimator's insertion fork are gone.

    A later change must not half-restore either: no code, example, micro
    benchmark or API doc may name them again.  docs/PERFORMANCE.md ("Tried
    and dropped") is the one place that still describes the backend;
    CHANGES.md and ROADMAP.md are history.
    """
    import re

    retired = re.compile(
        r"source.only|set_anchor|_replaying|_retain_log|_reported_steps|_ingest_reported",
        re.IGNORECASE,
    )
    root = pathlib.Path(__file__).resolve().parent.parent
    files = [root / "README.md", root / "docs" / "API.md"]
    for folder in ("src", "benchmarks", "examples"):
        files += sorted((root / folder).rglob("*.py"))
    hits = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if retired.search(line)
    ]
    assert hits == []


def test_runtime_frame_field_table_is_the_schema():
    """``docs/RUNTIME.md``'s "Frame fields" tables are ``FRAME_SCHEMA``.

    The doc table is the only prose listing of per-type fields (the
    ``wire``/``codec`` docstrings point to it): same frame types in the
    same order, same fields in wire order, same kind and JSON default,
    and the kind table names exactly the kinds that have a rule.
    """
    import json
    import re

    from repro.rt import codec, wire

    root = pathlib.Path(__file__).resolve().parent.parent
    section = (root / "docs" / "RUNTIME.md").read_text().split("#### Frame fields", 1)[1]
    section = section.split("\n**Codec negotiation", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    fields = [row for row in rows if row[0].strip("`") in wire.FRAME_TYPES]
    kinds = [row for row in rows if row not in fields]

    def rendered(kind, default):
        if default is None:
            return "absent" if kind == "boot" else "-"
        return f"`{json.dumps(default)}`"

    documented = {}
    for ftype, field, *rest in fields:
        listed = documented.setdefault(ftype.strip("`"), [])
        if re.fullmatch(r"`\w+`", field):
            listed.append((field.strip("`"), rest[0].strip("`"), rest[1]))
    assert list(documented) == list(wire.FRAME_TYPES)
    assert documented == {
        ftype: [(attr, kind, rendered(kind, default)) for attr, kind, default in spec]
        for ftype, spec in wire.FRAME_SCHEMA.items()
    }
    assert [row[0].strip("`") for row in kinds] == list(wire._KINDS) == list(codec._BINARY)
