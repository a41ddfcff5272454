"""Record the benchmark baseline: two sets of seeded runs and a traced table.

Usage (from the root of a checkout):

    python3 perfbench/sweep.py

It runs every workload of BENCHMARK.json at its ``run_seconds``, untraced,
at seeds 1-10, and then does the whole set a second time. For every
workload and end-to-end metric it reports each set's median and quartile
spread, (q3 - q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, and how far the two medians lie apart,
(larger - smaller) / smaller, against the metric's bound. It then makes two
traced runs per workload at seed 0, checks that their call counts agree,
and keeps the per-layer table. Everything is written to
``perfbench/baseline.json``. The exit code is 1 when a spread or the
distance between the two sets exceeds a bound, or the call counts differ.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SEEDS = list(range(1, 11))
SETS = 2
TRACE_SEED = 0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True

    sets = []
    for k in range(SETS):
        entry: dict = {}
        for workload in workloads:
            values: dict[str, list[float]] = {m: [] for m in bounds}
            for seed in SEEDS:
                out = run_once(workload, seed, seconds, 0)
                for m in bounds:
                    values[m].append(out["metrics"][m]["value"])
                print(
                    f"set {k + 1} {workload} seed {seed}: "
                    + ", ".join(f"{m}={v[-1]:.4g}" for m, v in values.items()),
                    flush=True,
                )
            entry[workload] = {m: spread(v) for m, v in values.items()}
        sets.append(entry)

    comparison: dict = {}
    for workload in workloads:
        comparison[workload] = {}
        for m, bound in bounds.items():
            stats = [s[workload][m] for s in sets]
            meds = [st["median"] for st in stats]
            apart = (max(meds) - min(meds)) / min(meds)
            spreads = [st["spread"] for st in stats]
            within = apart <= bound and (m == "setup_s" or max(spreads) <= bound)
            ok &= within
            comparison[workload][m] = {
                "bound": bound,
                "medians": meds,
                "spreads": spreads,
                "medians_apart": apart,
                "within_bound": within,
            }
            print(
                f"{workload} {m}: medians {' '.join(f'{x:.5g}' for x in meds)} "
                f"apart {apart:.3f}, spreads {' '.join(f'{x:.3f}' for x in spreads)} "
                f"(bound {bound}) {'ok' if within else 'OUTSIDE BOUND'}",
                flush=True,
            )

    per_layer: dict = {}
    for workload in workloads:
        first, second = (run_once(workload, TRACE_SEED, seconds, 1)["metrics"] for _ in range(2))
        calls_equal = all(
            first[m]["value"] == second[m]["value"] for m in first if m.endswith(".calls")
        )
        ok &= calls_equal
        print(f"{workload} traced twice at seed {TRACE_SEED}: calls equal = {calls_equal}")
        per_layer[workload] = {
            "calls_equal_between_two_runs": calls_equal,
            "metrics": {m: [first[m]["value"], second[m]["value"]] for m in first},
        }

    record = {
        "about": (
            f"Made with: python3 perfbench/sweep.py. {SETS} sets of untraced runs at "
            f"seeds {SEEDS[0]}-{SEEDS[-1]}, one after the other, with each set's "
            "end-to-end medians, quartiles and spreads per workload; the distance "
            "between the sets' medians; and the per-layer metrics of two traced "
            f"runs at seed {TRACE_SEED} per workload."
        ),
        "seconds": seconds,
        "seeds": SEEDS,
        "environment": run.environment(),
        "sets": sets,
        "comparison": comparison,
        "per_layer": {"seed": TRACE_SEED, "workloads": per_layer},
    }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
