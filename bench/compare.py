"""``python -m bench compare A.json B.json``: the A/A and A/B judge.

One row per workload and end-to-end metric the issue names for it (a
metric's ``primary`` workloads; what else a workload reports is context
and is not judged): both medians, both ranges, the ratio with its base,
the bound, and a verdict:

* ``worse``      - B's median is worse than A's by more than the bound;
* ``unresolved`` - the repeats' spread exceeds the bound and the two
  ranges overlap, so the data cannot say ``ok`` (never reported as
  unchanged); a side whose every run beats the other's every run is
  resolved whatever the spread;
* ``ok``         - otherwise.

``fail_ratio`` has an absolute bound of 0; sim digests and exact counters
are compared for identity (``differs`` is reported, and is not ``worse``:
a legal float-association change alters the digest).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .spec import END_TO_END, FAIL_RATIO, SAME_SEED_BOUND, SIM, Metric


def judge(metric: Metric, a: Dict, b: Dict, bound: float) -> Tuple[str, float]:
    """Verdict and B's relative worsening (positive = worse) for one row."""
    base = a["median"]
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (b["median"] - base)
    relative = worsening / abs(base) if base else (0.0 if worsening == 0 else float("inf"))
    allowed = bound * abs(base) + metric.floor
    if metric.better == "lower":
        b_all_better, b_all_worse = b["max"] < a["min"], b["min"] > a["max"]
    else:
        b_all_better, b_all_worse = b["min"] > a["max"], b["max"] < a["min"]
    spread = max(
        (side["max"] - side["min"]) / abs(side["median"]) if side["median"] else 0.0
        for side in (a, b)
    )
    if spread > bound and bound > 0 and not (b_all_better or b_all_worse):
        return "unresolved", relative
    if worsening > allowed:
        return "worse", relative
    return "ok", relative


def compare(a: Dict, b: Dict) -> Tuple[List[Dict], List[str]]:
    """Rows for every shared workload, plus identity notes."""
    rows: List[Dict] = []
    notes: List[str] = []
    for workload, run_a in a["workloads"].items():
        run_b = b["workloads"].get(workload)
        if run_b is None:
            notes.append(f"{workload}: missing from B")
            continue
        same_inputs = (run_a["seed"], run_a["seconds"]) == (run_b["seed"], run_b["seconds"])
        if not same_inputs:
            notes.append(f"{workload}: seeds or lengths differ, sim identity checks skipped")
        for metric in END_TO_END + [FAIL_RATIO]:
            if workload not in metric.primary:
                continue
            side_a, side_b = run_a["metrics"][metric.name], run_b["metrics"][metric.name]
            bound = metric.bound
            if same_inputs and workload in SIM:
                bound = SAME_SEED_BOUND.get(metric.name, bound)
            verdict, relative = judge(metric, side_a, side_b, bound)
            rows.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "a": side_a, "b": side_b, "bound": bound,
                "ratio": side_b["median"] / side_a["median"] if side_a["median"] else None,
                "worsening": relative, "verdict": verdict,
            })
        if workload in SIM and same_inputs:
            for key in ("digest", "counters"):
                if run_a.get(key) != run_b.get(key):
                    notes.append(f"{workload}: {key} differs")
    return rows, notes


def _range(side: Dict) -> str:
    return f"{side['median']:.6g} [{side['min']:.6g}..{side['max']:.6g}]"


def render(rows: List[Dict], notes: List[str]) -> str:
    lines = [
        f"{'workload':<20} {'metric':<24} {'A median [min..max]':<34} "
        f"{'B median [min..max]':<34} {'B/A':>8} {'bound':>7}  verdict"
    ]
    for row in rows:
        ratio = f"{row['ratio']:.4f}" if row["ratio"] is not None else "-"
        lines.append(
            f"{row['workload']:<20} {row['metric'] + ' (' + row['unit'] + ')':<24} "
            f"{_range(row['a']):<34} {_range(row['b']):<34} {ratio:>8} "
            f"{row['bound']:>7.2g}  {row['verdict']}"
        )
    lines.append("(B/A is B's median over base A's median)")
    lines += [f"note: {note}" for note in notes]
    counts = {v: sum(1 for r in rows if r["verdict"] == v) for v in ("ok", "worse", "unresolved")}
    lines.append(
        f"{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved, "
        f"{len(notes)} notes"
    )
    return "\n".join(lines)
