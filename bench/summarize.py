"""Median and quartiles, across runs, of every metric in ``.bench_out/``.

    python3 bench/summarize.py [--out FILE] [RESULT.json ...]

Without arguments it reads every run record that ``run.py`` wrote to
``.bench_out/``. Runs are grouped by workload and by trace flag; for each
metric it prints the median over runs, the quartiles and the spread
(q3 - q1) / median, the figure that BENCHMARK.json's bounds are set against.
Untraced runs also get the same figures for the values as measured, before
the conversion to reference speed (``as_measured``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def summarize(paths: list[Path]) -> dict:
    groups: dict[str, dict] = {}
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        if "metrics" not in record or "workload" not in record:
            continue
        key = f"{record['workload']}/trace{record['trace']}"
        group = groups.setdefault(key, {"runs": 0, "seeds": [], "incorrect": 0,
                                        "env": record["env"], "metrics": {},
                                        "as_measured": {}, "units": {}})
        group["runs"] += 1
        group["seeds"].append(record["seed"])
        group["incorrect"] += not record["correct"]
        for name, metric in record["metrics"].items():
            group["metrics"].setdefault(name, []).append(metric["value"])
            group["units"][name] = metric["unit"]
        for name, metric in record.get("as_measured", {}).items():
            group["as_measured"].setdefault(name, []).append(metric["value"])
    out = {}
    for key, group in sorted(groups.items()):
        env = {k: v for k, v in group["env"].items() if k != "seed"}
        out[key] = {"runs": group["runs"], "seeds": sorted(group["seeds"]),
                    "incorrect_runs": group["incorrect"], "env": env}
        for part in ("metrics", "as_measured"):
            if group[part]:
                out[key][part] = {name: _spread(values, group["units"][name])
                                  for name, values in group[part].items()}
    return out


def _spread(values: list[float], unit: str) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="*", type=Path)
    parser.add_argument("--out", type=Path, help="also write the summary as JSON")
    args = parser.parse_args()
    paths = args.results or sorted(Path(".bench_out").glob("*-trace[01].json"))
    summary = summarize(paths)
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, {group['incorrect_runs']} incorrect")
        for part in ("metrics", "as_measured"):
            for name, m in group.get(part, {}).items():
                label = name if part == "metrics" else f"{name} (as measured)"
                print(f"  {label:32s} {m['median']:12.6g} {m['unit']:6s} "
                      f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
