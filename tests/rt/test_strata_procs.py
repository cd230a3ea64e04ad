"""The federation spanning real OS processes over real UDP sockets.

Load-bearing assertions:

* ``run_federation_procs`` runs the core in-process and each downstream
  tier in a subprocess, handshakes addresses over stdio, and merges the
  children's evidence into one sound document;
* every tier's merged trace + final estimates pass the same independent
  oracle checks (soundness and Theorem 2.1 optimality) as an in-process
  run - the child's estimators lose nothing in the stdio round trip;
* ``repro-rt strata`` honours the clean-death contract under
  ``--procs``: SIGINT yields exit 130 and a ``"partial": true`` archive.

Durations are short; the SIGINT test interrupts a deliberately long run.
"""

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.rt.strata import FederationConfig, FederationSpec, TierSpec, run_federation_sync
from repro.testing.oracle import oracle_causal_past, oracle_external_bounds

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


def _assert_oracle_parity(spec, trace, final_bounds, *, tol=1e-6):
    """Soundness + Theorem 2.1 optimality of one tier's finished run."""
    events = [record.event for record in trace]
    rt_of = {record.event.eid: record.rt for record in trace}
    last = {}
    for event in events:
        prev = last.get(event.proc)
        if prev is None or event.seq > prev.seq:
            last[event.proc] = event
    assert last, "tier trace is empty"
    for proc, event in last.items():
        past = oracle_causal_past(events, event.eid)
        oracle = oracle_external_bounds(past, spec, event.eid)
        assert oracle.contains(rt_of[event.eid], tolerance=tol), (
            f"oracle bound {oracle} at {event.eid} excludes rt {rt_of[event.eid]}"
        )
        if proc in final_bounds:
            ours = final_bounds[proc]
            assert ours.lower == pytest.approx(oracle.lower, abs=tol)
            if math.isinf(oracle.upper):
                assert math.isinf(ours.upper)
            else:
                assert ours.upper == pytest.approx(oracle.upper, abs=tol)


def _two_tier_config(**overrides) -> FederationConfig:
    spec = FederationSpec(
        tiers=(
            TierSpec(
                name="core",
                stratum=0,
                processors=("c0", "c1", "c2"),
                links=(("c0", "c1"), ("c1", "c2"), ("c0", "c2")),
                exports=("c1", "c2"),
            ),
            TierSpec(
                name="tier1",
                stratum=1,
                processors=("t1n0", "t1n1"),
                links=(("t1n0", "t1n1"),),
                border="t1n0",
                anchors=("c1", "c2"),
            ),
        )
    )
    defaults = dict(
        spec=spec,
        duration=3.0,
        gossip_period=0.05,
        sample_period=0.15,
        transport="udp",
        clock_plans={
            "c1": {"kind": "skewed", "rate": 1.0 + 120e-6},
            "t1n1": {"kind": "skewed", "rate": 1.0 - 150e-6, "offset": 0.2},
        },
        sync_period=0.1,
        probe_timeout=0.25,
        seed=11,
    )
    defaults.update(overrides)
    return FederationConfig(**defaults)


class TestFederationAcrossProcesses:
    def test_two_tiers_two_processes_sound_with_parity(self):
        result = run_federation_sync(_two_tier_config(), processes=True)
        assert not result.aborted
        assert result.soundness_violations() == []

        # the downstream tier, running in its own OS process, adopted
        # upstream bounds over real UDP and produced bounded externals
        tier1 = result.tier("tier1")
        external = [s for s in tier1.run.samples if s.channel == "strata"]
        assert external, "child tier evidence did not survive the stdio trip"
        assert sum(1 for s in external if s.bound.is_bounded) > 0
        assert tier1.anchor_stats.adopted > 0
        assert tier1.elections == []

        # per-tier Theorem 2.1 parity over the merged document's traces:
        # each tier is internally optimal against its own spec, whether
        # its run happened here or in a child process
        for tier in result.tiers:
            assert tier.final_bounds, f"{tier.name} shipped no final bounds"
            _assert_oracle_parity(tier.run.spec, tier.run.trace, tier.final_bounds)

        # the merged trace interleaves both tiers chronologically
        merged = result.merged_trace()
        assert len(merged) == sum(len(t.run.trace) for t in result.tiers)
        rts = [record.rt for record in merged]
        assert rts == sorted(rts)


class TestStrataCliCleanDeath:
    def test_sigint_exits_130_with_partial_archive(self, tmp_path):
        out = tmp_path / "interrupted.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.rt.cli",
                "strata",
                "--procs",
                "--transport",
                "udp",
                "--core-nodes",
                "3",
                "--tiers",
                "1",
                "--tier-nodes",
                "2",
                "--duration",
                "30",
                "--sync-period",
                "0.1",
                "--out",
                str(out),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,  # pytest's own Ctrl-C must not reach it
        )
        try:
            time.sleep(5.0)  # let the handshake finish and sampling start
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=30)
        except Exception:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 130, (
            f"exit {proc.returncode};\nstdout: {stdout.decode()!r}\n"
            f"stderr: {stderr.decode()!r}"
        )
        document = json.loads(out.read_text())
        assert document["partial"] is True
        assert {row["name"] for row in document["strata"]["tiers"]} == {
            "core",
            "tier1",
        }
