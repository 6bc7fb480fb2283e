"""Tests of the benchmark itself; run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the per-layer metrics the benchmark was defined with; later changes may
# add metrics but must keep these
NAMED_LAYER_METRICS = {
    "census.index_build_s", "census.index_builds", "census.cat_build_s",
    "census.cat_bytes_computed", "census.count_linear_s", "census.count_linear.linear_per_s",
    "census.census_by_cluster_s", "census.census_by_cluster.subsets_per_s",
    "census.classify_combo_us", "census.classify_combo.plus_frac",
    "switching.bijection_audit_s", "switching.bijection_audit.subsets_per_s",
    "switching.compat_stats_us", "switching.ratio_series_s",
    "montecarlo.trials_per_s", "montecarlo.draw_subset_ids.trials_per_s",
    "montecarlo.unrank_us", "montecarlo.hit_frac",
    "partitions.sigma_s", "partitions.log_sigma_s",
    "asymptotics.estimate_partite_s", "asymptotics.estimate_uniform_s",
    "hypergraphs.classify_us", "cli.main_s",
    "trace.untraced_wall_s", "trace.traced_wall_s",
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    out = _bench("--workload", workload, "--tiny", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    out = _bench("--workload", workload, "--tiny", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stdout
    names = set(result["metrics"])
    assert names == {m["name"] for m in SPEC["per_layer"]}
    assert NAMED_LAYER_METRICS <= names
    timings = [k for k, v in result["metrics"].items() if v["unit"] in ("s", "us")]
    assert all(result["metrics"][k]["value"] > 0 for k in timings)


def test_corrupted_reference_counts_as_failed():
    refs = workloads.load_references()
    sizes, r, m = refs["grid"][0]
    key = workloads.label(tuple(sizes), r, m)
    refs["linear"][key] = str(int(refs["linear"][key]) + 1)
    out = worker.run(workloads.build("exact", 0, refs, tiny=True))
    assert out["failed"] == 1
    assert out["failed"] / out["attempted"] > 0
    assert key in out["failures"][0]


@pytest.mark.parametrize("slow", [1.0, 1.7])
def test_speed_probe_cancels_a_uniform_slow_down(slow):
    # one second of work at reference speed, with one probe sample inside
    # it and one on either side, all slowed by the same factor
    probe = worker.SpeedProbe()
    probe.at = [0.0, 1.0, 3.0]
    probe.wall = [slow * worker.REFERENCE_S] * 3
    probe.cpu = list(probe.wall)
    took = slow * (1 + worker.REFERENCE_S)
    assert probe.scaled(0.5, 0.5 + took, took) == pytest.approx((1.0, 1.0))


def test_same_seed_gives_same_inputs_and_other_seeds_do_not():
    refs = workloads.load_references()

    def inputs(workload, seed):
        return [(job.name, job.argv) for job in workloads.build(workload, seed, refs, tiny=True).jobs]

    for workload in ("sample-sweep", "paper-scale"):
        assert inputs(workload, 1) == inputs(workload, 1)
        assert inputs(workload, 1) != inputs(workload, 2)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "exact", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
