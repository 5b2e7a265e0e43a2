"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs in both modes and prints every metric BENCHMARK.json
names, with its unit; a deliberately corrupted answer counts as failed.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(workload, trace):
    report, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    assert report["input_digest"] and report["machine"]["nproc"] >= 1
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        # Self times plus the residual account for the traced wall time.
        assert 0 <= values["trace.unaccounted_s"] <= 0.05 * values["trace.wall_s"] + 1e-3
    else:
        assert report["extra_metrics"]["failed_frac"]["value"] == 0


def test_same_seed_same_inputs():
    first, _ = _bench("tables", 0)
    second, _ = _bench("tables", 0)
    assert first["input_digest"] == second["input_digest"]


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()


@pytest.fixture
def kh():
    sys.path.insert(0, str(ROOT / "src"))
    return run._import_package()


def test_tracing_wraps_every_namespace_and_restores(kh):
    import tracing

    modules = [kh, kh.diagram, kh.lando, kh.khovanov, kh.simplicial, kh.extreme, kh.families]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.begin_pass()
    with tracer.installed(kh):
        original = before[4]["independence_complex"]
        for m in (kh, kh.simplicial, kh.extreme):
            assert m.independence_complex.__wrapped__ is original
        assert kh.extreme.homology is before[4]["homology"]  # not a layer
        kh.extreme_via_lando(kh.parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"))
    assert [dict(vars(m)) for m in modules] == before
    names = {span[0] for span in tracer.spans}
    assert {"diagram.parse", "extreme.lando", "lando.build", "simplicial.build"} <= names
    assert tracer.counts[0]["simplicial.faces"] > 0


def _bump(group, kh):
    return kh.AbelianGroup(group.rank + 1, group.torsion)


def test_corrupted_route_row_fails(kh, monkeypatch):
    workload = WORKLOADS["lando_large"]
    items = workload.realise(kh, workload.sample(3, True))
    honest = kh.extreme.extreme_via_dual

    def corrupted(d, *args, **kwargs):
        row = honest(d, *args, **kwargs)
        i = min(row.groups, default=0)
        groups = dict(row.groups)
        groups[i] = _bump(groups.get(i, kh.AbelianGroup(0)), kh)
        return dataclasses.replace(row, groups=groups)

    monkeypatch.setattr(kh.extreme, "extreme_via_dual", corrupted)
    tally = run.Tally()
    run.measure(workload, kh, items, 0.0, tally)
    assert tally.attempted == len(items)
    assert len(tally.failures) == len(items)
    assert all("disagrees" in problems[0] for _, problems in tally.failures)


def test_corrupted_table_group_fails(kh, monkeypatch):
    workload = WORKLOADS["tables"]
    items = workload.realise(kh, workload.sample(3, True))
    honest = kh.khovanov_cohomology

    def corrupted(d, ring="Z", *args):
        table = honest(d, ring, *args)
        key = min(table.entries, key=lambda ij: (ij[1], ij[0]))
        table.entries[key] = _bump(table.entries[key], kh)
        return table

    monkeypatch.setattr(kh, "khovanov_cohomology", corrupted)
    tally = run.Tally()
    run.measure(workload, kh, items, 0.0, tally)
    assert len(tally.failures) == len(items)


def test_thick_row_checked_against_binomial(kh):
    from workloads import check_thick

    row = {0: kh.AbelianGroup(1), 1: kh.AbelianGroup(2), 2: kh.AbelianGroup(1)}
    assert check_thick(kh, row, 2) == []
    row[1] = kh.AbelianGroup(3)
    assert check_thick(kh, row, 2)


def test_zero_row_checked_against_independence(kh):
    from workloads import check_euler

    assert check_euler({}, 0) == []
    assert check_euler({3: kh.AbelianGroup(1)}, -1) == []
    assert check_euler({3: kh.AbelianGroup(1)}, 0)
