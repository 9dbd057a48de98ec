"""Fold the result files of a set of runs into ``baseline.json``.

    python3 perfbench/baseline.py            # write baseline.json
    python3 perfbench/baseline.py --print    # only print the spreads

Reads every ``.work/results/*.json`` measured on the current ``src/``
(same content hash).  For each workload and end-to-end metric it
records the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, (Q3 - Q1) / median, over the runs; for the per-layer
metrics it records the median over traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import HERE, WORK, git_sha, src_digest


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "runs": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--print", action="store_true", dest="print_only")
    args = parser.parse_args(argv)
    digest = src_digest()
    runs = [json.loads(path.read_text()) for path in sorted((WORK / "results").glob("*.json"))]
    runs = [run for run in runs if run["context"]["src_digest"] == digest]
    baseline = {"src_digest": digest, "workloads": {}}
    for run in runs:
        context = run["context"]
        entry = baseline["workloads"].setdefault(
            context["workload"], {"end_to_end": {}, "per_layer": {}, "seeds": []}
        )
        section = "per_layer" if context["trace"] else "end_to_end"
        for name, metric in run["metrics"].items():
            entry[section].setdefault(name, {"unit": metric["unit"], "values": []})
            entry[section][name]["values"].append(metric["value"])
        if not context["trace"]:
            entry["seeds"].append(context["seed"])
            entry.setdefault("failed_share", []).append(run["failed_share"])
        baseline.setdefault("env", context["env"])
        baseline.setdefault("git_sha", context["git_sha"] or git_sha())
    for workload, entry in sorted(baseline["workloads"].items()):
        for name, metric in entry["end_to_end"].items():
            values = metric.pop("values")
            metric.update(summary(values) if len(values) > 1 else {"median": values[0]})
            print(f"{workload:22s} {name:18s} median {metric['median']:10.4f} "
                  f"spread {metric.get('spread', float('nan')):.4f} runs {len(values)}")
        for metric in entry["per_layer"].values():
            metric["value"] = statistics.median(metric.pop("values"))
        entry["failed_share"] = max(entry.get("failed_share", [0.0]))
    if not args.print_only:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
