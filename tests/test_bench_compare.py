"""The perf gate's baseline format: summaries in, raw samples out.

``benchmarks/compare.py summarize`` turns a raw pytest-benchmark run into
the committed ``BENCH_core.json`` (summary stats only); the gate itself
reads either format.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "benchmarks" / "compare.py"
)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def _raw(path, means):
    benchmarks = [
        {
            "name": name,
            "stats": {
                "mean": mean, "median": mean, "stddev": 0.0, "min": mean,
                "max": mean, "rounds": 3, "data": [mean] * 3,
            },
        }
        for name, mean in means.items()
    ]
    path.write_text(json.dumps({"benchmarks": benchmarks, "machine_info": {}}))
    return str(path)


def test_summarize_drops_samples(tmp_path):
    out = tmp_path / "core.json"
    raw = _raw(tmp_path / "raw.json", {"slow": 2.0, "fast": 1.0})
    assert compare.main(["summarize", raw, str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["format"] == compare.SUMMARY_FORMAT
    assert set(summary["benchmarks"]["slow"]) == set(compare.SUMMARY_STATS)
    assert compare.load_means(str(out)) == compare.load_means(raw)


def test_gate_reads_summary_baseline(tmp_path, capsys):
    out = tmp_path / "core.json"
    means = {"slow": 2.0, "fast": 0.5}
    compare.main(["summarize", _raw(tmp_path / "raw.json", means), str(out)])
    same = _raw(tmp_path / "fresh.json", {"slow": 2.1, "fast": 0.5})
    gate = ["--tolerance", "0.25", "--assert-speedup", "fast", "slow"]
    assert compare.main([str(out), same, *gate, "4.0"]) == 0
    assert compare.main([str(out), same, *gate, "5.0"]) == 1
    slower = _raw(tmp_path / "slower.json", {"slow": 3.0, "fast": 0.5})
    assert compare.main([str(out), slower, "--tolerance", "0.25"]) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_committed_baseline_is_a_summary():
    data = json.loads((ROOT / "BENCH_core.json").read_text())
    assert data["format"] == compare.SUMMARY_FORMAT
    assert all("data" not in stats for stats in data["benchmarks"].values())


def test_rejects_files_without_benchmarks(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    with pytest.raises(SystemExit):
        compare.load_means(str(bogus))
