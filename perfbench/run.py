"""The exkh benchmark: one workload, one process, one item at a time.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nowhere else, so a directory without it fails with exit 2.

The workload's inputs are drawn from ``--seed`` once.  Set-up then imports
``exkh``, loads the catalog, realises the inputs as PD text and runs one
warm-up item; it is repeated ``SETUP_REPS`` times, re-importing the
package each time, and ``setup_s`` is the median.

``--trace 0`` is a closed loop with one client: items run in a fixed
order, one after another, until ``--seconds`` have passed and every item
has run at least once.  Each item goes from PD text to a checked answer.
Every item time is scaled by the calibration kernel timed around it (see
``calibrate.py``), and the set-up times by the median of the kernel
timings taken between the set-ups, so that the host's speed drift does not read as a change of the
program; the unscaled figures are in the report line.
``items_per_s`` is the item count over the sum of the per-item median
times, so a run that stops part way through a pass still weighs every
item once; ``item_p50_ms`` is the median of the per-item medians.

``--trace 1`` makes passes over all items until ``--seconds`` have
passed, running each item untraced and then traced, back to back, and
reports the per-layer metrics of the median traced pass (see
``tracing.py``); these never feed the end-to-end metrics.  Its times are
unscaled, so that the self times add up to the pass's wall time.
``trace.overhead_s`` is that pass's traced minus untraced time, summed
over the item pairs, with each untraced time scaled to the host speed of
its traced twin by the calibration kernel timed between and around them,
so that the host's drift cancels out of it.

Before the result, one ``{"report": ...}`` line gives the machine, the
seed, the item count and input digest, sample counts, and the metrics the
result line does not carry (``failed_frac``, and ``item_p90_ms`` where a
workload has at least 100 items).  The same report, and for traced runs
every span, is written under ``perfbench/out/``.  The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
KERNELS_PER_SETUP = 4
# No new item starts after this many seconds of measuring, whatever
# --seconds says, so that a much slower program still ends in time.
HARD_LIMIT_S = 120.0
P90_MIN_ITEMS = 100
# Time the calibration kernel before an item when the last timing is
# older than this.
CALIBRATE_EVERY_S = 0.25


def _import_package():
    """Import exkh from ROOT/src, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "exkh" or n.startswith("exkh.")]:
        del sys.modules[name]
    return importlib.import_module("exkh")


def _run_one(workload, kh, item) -> list[str]:
    try:
        return workload.run(kh, item)
    except Exception:  # the run goes on; the item counts as failed
        return [traceback.format_exc(limit=3)]


def setup(workload, seed: int, tiny: bool):
    """Set up SETUP_REPS times; returns the last set-up, each one's
    unscaled time, and the calibration scale around them.

    Several kernel timings precede and follow each set-up, and their
    median gives the scale: one timing is too noisy, and the host's
    speed during the measured loop may differ from its speed here.

    The benchmark's own seeded search runs once, untimed, so that set-up
    time measures the program (import, catalog, realising the inputs,
    warm-up) and not how long a seed takes to find inputs in their bands.
    """
    specs = workload.sample(seed, tiny)
    times, digests = [], set()
    cal = calibrate.Calibration()
    for _ in range(SETUP_REPS):
        for _ in range(KERNELS_PER_SETUP):
            cal.measure()
        t0 = perf_counter()
        kh = _import_package()
        kh.load_catalog()
        items = workload.realise(kh, specs)
        _run_one(workload, kh, items[0])
        times.append(perf_counter() - t0)
        digests.add(inputs.digest([it.pd for it in items]))
    for _ in range(KERNELS_PER_SETUP):
        cal.measure()
    if len(digests) != 1:
        raise RuntimeError(f"inputs differ between set-ups of one seed: {digests}")
    return kh, items, times, calibrate.REFERENCE_S / statistics.median(cal.timings)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def record(self, item, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((item.label, problems))


def _timed(tally: Tally, item, run) -> float:
    """Time one item, started from a collected heap so that it does not
    pay for collecting the garbage of the items before it."""
    gc.collect()
    t0 = perf_counter()
    problems = run()
    elapsed = perf_counter() - t0
    tally.record(item, problems)
    return elapsed


def measure(workload, kh, items, seconds: float, tally: Tally):
    """Closed loop; returns each item's scaled and raw latencies in seconds,
    and the calibration kernel's timings."""
    cal = calibrate.Calibration()
    runs: list[tuple[int, float, int]] = []  # (item, seconds, kernel before)
    before = cal.measure()
    start = last = perf_counter()
    k = 0
    while True:
        now = perf_counter()
        elapsed = now - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and k >= len(items)):
            break
        if now - last >= CALIBRATE_EVERY_S:
            before = cal.measure()
            last = perf_counter()
        index = k % len(items)
        k += 1
        item = items[index]
        runs.append((index, _timed(tally, item, lambda: _run_one(workload, kh, item)), before))
    cal.measure()
    scaled: list[list[float]] = [[] for _ in items]
    raw: list[list[float]] = [[] for _ in items]
    for index, t, before in runs:
        raw[index].append(t)
        scaled[index].append(t * cal.scale(before))
    return scaled, raw, cal.timings


def end_to_end(latencies: list[list[float]]) -> tuple[dict, dict]:
    per_item = [statistics.median(lat) for lat in latencies if lat]
    metrics = {
        "items_per_s": (len(per_item) / sum(per_item), "1/s"),
        "item_p50_ms": (statistics.median(per_item) * 1e3, "ms"),
    }
    samples = {"item_p50_ms": len(per_item)}
    if len(per_item) >= P90_MIN_ITEMS:
        metrics["item_p90_ms"] = (statistics.quantiles(per_item, n=10)[8] * 1e3, "ms")
        samples["item_p90_ms"] = len(per_item)
    samples["timings_per_item"] = sorted({len(lat) for lat in latencies})
    return metrics, samples


def traced(workload, kh, items, seconds: float, tally: Tally, tracer) -> dict:
    """Passes in which each item runs untraced, then traced; per-layer
    metrics of the median traced pass."""
    cal = calibrate.Calibration()
    traced_walls, overheads = [], []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        tracer.begin_pass()
        wall = overhead = 0.0
        cal.measure()
        for i, item in enumerate(items):
            plain = _timed(tally, item, lambda: _run_one(workload, kh, item))
            cal.measure()
            with tracer.installed(kh):
                t = _timed(tally, item, lambda: tracer.item(i, _run_one, workload, kh, item))
            cal.measure()
            k0, k1, k2 = cal.timings[-3:]
            wall += t
            overhead += t - plain * (k1 + k2) / (k0 + k1)
        traced_walls.append(wall)
        overheads.append(overhead)
        # Stop when another pass would overrun --seconds.
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - pass_start) > min(seconds, HARD_LIMIT_S):
            break
    chosen = traced_walls.index(statistics.median_low(traced_walls))
    wall = traced_walls[chosen]
    layers, self_total = tracer.pass_layers(chosen)
    metrics = {name: (value, "s") for name, value in layers.items()}
    metrics.update({name: (value, "count") for name, value in tracer.counts[chosen].items()})
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (overheads[chosen], "s")
    metrics["trace.unaccounted_s"] = (wall - self_total, "s")
    metrics["trace.passes"] = (len(traced_walls), "count")
    return metrics


def git_commit() -> str | None:
    """HEAD of the checkout's .git, if it has one; read, no git process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="a few small items, for the smoke test"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "exkh" / "__init__.py").is_file():
        print(f"perfbench: no exkh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    kh, items, setup_times, setup_scale = setup(workload, args.seed, args.tiny)
    tally = Tally()
    tracer = tracing.Tracer()
    scaled: list[list[float]] = []
    raw: list[list[float]] = []
    kernel_s: list[float] = []
    if args.trace:
        metrics = traced(workload, kh, items, args.seconds, tally, tracer)
        samples = {"traced_passes": metrics["trace.passes"][0]}
        extra = {}
    else:
        scaled, raw, kernel_s = measure(workload, kh, items, args.seconds, tally)
        metrics, samples = end_to_end(scaled)
        unscaled, _ = end_to_end(raw)
        metrics["setup_s"] = (statistics.median(setup_times) * setup_scale, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        )
        samples["setup_s"] = len(setup_times)
        samples["calibrations"] = len(kernel_s)
        extra = {
            "failed_frac": (len(tally.failures) / tally.attempted, "fraction"),
            "item_p90_ms": metrics.pop("item_p90_ms", None),
            "unscaled_items_per_s": unscaled["items_per_s"],
            "unscaled_item_p50_ms": unscaled["item_p50_ms"],
            "unscaled_setup_s": (statistics.median(setup_times), "s"),
            "kernel_ms": (statistics.median(kernel_s) * 1e3, "ms"),
        }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "items": len(items),
        "input_digest": inputs.digest([it.pd for it in items]),
        "machine": machine(),
        "samples": samples,
        "setup_runs_s": setup_times,
        "setup_scale": setup_scale,
        "extra_metrics": {
            k: {"value": v[0], "unit": v[1]} for k, v in extra.items() if v is not None
        },
        "failures": tally.failures[:20],
    }
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    timings = {
        it.label: {"scaled": s, "raw": r} for it, s, r in zip(items, scaled, raw)
    }
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(
            {"report": report, "result": result, "latencies_s": timings, "kernel_s": kernel_s},
            fh,
            indent=1,
        )
    if args.trace:
        tracer.dump(out / f"{stem}-spans.json")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
