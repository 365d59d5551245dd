"""Run alternating benchmark pairs on a parent and a change checkout.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload eval64 \
        --seeds 101-110 --out BENCH_label.json [--trace-seed 131-133]

For each seed it runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, with T the
``run_seconds`` of the change's BENCHMARK.json, one run at a time, with the
parent first on even pairs and the change first on odd pairs, so a drift
in host speed lands on both sides. ``--trace-seed`` takes a seed list
in the same form and adds one ``--trace 1`` pair per seed, run in the
same alternating order; every traced run's per-unit layer metrics are
kept, with each side's median per metric.

The summary goes into ``--out`` under ``workloads.<W>`` (and
``traced.<W>``); entries for other workloads already in the file are
kept, so each workload can be run separately, and a later call for
the same workload replaces its entry. Per end-to-end metric it
holds both sides' runs, median and quartiles (inclusive method), the
number of pairs the change wins in the metric's direction, the ratio of
the medians and the parent's quartile spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'101-110' or '3,5,7' (or a mix, '1-3,9') -> the seeds in order.

    A range that runs backwards is a ValueError, not an empty list: a run
    over no seed would replace the workload's entry in --out with nothing.
    """
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ValueError(f"seed range {part!r} runs backwards")
        seeds.extend(range(lo, hi + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its JSON result line, with ``correct`` false on a bad exit."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    result["correct"] = bool(result.get("correct")) and proc.returncode == 0
    return result


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def summarize(pairs: list[dict], specs: list[dict]) -> dict:
    """Summary of paired runs.

    `pairs` holds one ``{"parent": result, "change": result}`` per seed,
    each result a run's JSON line; `specs` are the ``end_to_end`` entries
    of BENCHMARK.json (name, unit, better, bound). A metric is summarized
    over the pairs in which both runs report it; with fewer than two such
    pairs it keeps only the runs, and shows no gain.
    """
    out = {"pairs": len(pairs),
           "runs_not_correct": sum(not p[s]["correct"] for p in pairs for s in SIDES),
           "metrics": {}}
    for spec in specs:
        name = spec["name"]
        both = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs
                if all(name in p[s].get("metrics", {}) for s in SIDES)]
        if not both:
            continue
        parent, change = ([b[i] for b in both] for i in (0, 1))
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in both)
        metric = out["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "change_better_in_pairs": f"{wins}/{len(both)}"}
        if len(both) < 2:
            # quartiles need two values, and one pair shows no gain
            metric.update(parent={"runs": [round(v, 4) for v in parent]},
                          change={"runs": [round(v, 4) for v in change]}, gain_shown=False)
            continue
        p_sum, c_sum = _quartiles(parent), _quartiles(change)
        iqr = p_sum["q3"] - p_sum["q1"]
        gap = sign * (c_sum["median"] - p_sum["median"])
        metric.update({
            "parent": p_sum, "change": c_sum,
            "change_over_parent_median": round(c_sum["median"] / p_sum["median"], 4),
            "parent_iqr": round(iqr, 4),
            # the change wins 9 of 10 pairs and its median beats the
            # parent's by more than the parent's quartile spread
            "gain_shown": wins >= 0.9 * len(both) and gap > iqr,
        })
    return out


def _rounded(metric: dict | None) -> float | None:
    return None if metric is None else round(metric["value"], 3)


def summarize_traced(pairs: list[dict]) -> dict:
    """Per-unit layer metrics of traced pairs: each side's runs and median.

    A metric's runs on a side are the values of the runs that report it,
    in seed order.
    """
    units = {}
    for pair in pairs:
        for side in SIDES:
            for name, metric in pair[side].get("metrics", {}).items():
                units.setdefault(name, metric["unit"])
    per_unit = {}
    for name, unit in units.items():
        per_unit[name] = {"unit": unit}
        for side in SIDES:
            runs = [_rounded(p[side]["metrics"].get(name)) for p in pairs
                    if name in p[side].get("metrics", {})]
            per_unit[name][side] = {
                "median": round(statistics.median(runs), 3) if runs else None,
                "runs": runs}
    return {"pairs": len(pairs),
            "runs_not_correct": sum(not p[s]["correct"] for p in pairs for s in SIDES),
            "per_unit": per_unit}


def run_pairs(checkouts: dict, workload: str, seeds: list[int], seconds: float,
              trace: int) -> list[dict]:
    """One run per side and seed, alternating which side goes first."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(checkouts[side], workload, seed, seconds, trace)
                for side in order}
        pairs.append(pair)
        # a traced run reports layer metrics only, no throughput
        print(f"{'traced ' if trace else ''}{workload} seed {seed}: " + "  ".join(
            f"{side} correct {pair[side]['correct']}" if trace else
            f"{side} throughput {_rounded(pair[side]['metrics'].get('throughput'))}"
            for side in SIDES), flush=True)
    return pairs


def _environment(checkout: Path, workload: str) -> dict:
    path = checkout / ".perfbench" / workload / "environment.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--trace-seed", type=parse_seeds, default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        # the summary's quartiles need at least two pairs
        parser.error(f"--seeds needs at least two seeds, got {len(args.seeds)}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    specs, seconds = bench["end_to_end"], bench["run_seconds"]

    pairs = run_pairs(checkouts, args.workload, args.seeds, seconds, 0)
    traced = run_pairs(checkouts, args.workload, args.trace_seed, seconds, 1)

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    envs = {side: _environment(checkouts[side], args.workload) for side in SIDES}
    doc["parent_commit"] = envs["parent"].get("git_commit", "unknown")
    doc["src_sha256"] = {side: envs[side].get("src_sha256") for side in SIDES}
    doc["host"] = {k: envs["change"].get(k) for k in
                   ("nproc", "machine", "python", "numpy", "blas", "blas_threads_pinned")}
    doc["method"] = (
        f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0 "
        "in a checkout of the parent and of the change, one pair per seed, alternating "
        "which side runs first (even pairs parent first); median and quartiles (inclusive "
        "method) over each side's runs; change_better_in_pairs counts pairs where the "
        "change's value is better in the metric's direction; parent_iqr is q3 - q1 of the "
        "parent's runs; traced.W holds --trace 1 pairs run the same way, with each side's "
        "per-unit layer metrics per run and their median; written by tools/bench_pairs.py")
    doc.setdefault("workloads", {})[args.workload] = {"seeds": args.seeds, **summarize(pairs, specs)}
    if traced:
        doc.setdefault("traced", {})[args.workload] = {
            "seeds": args.trace_seed, **summarize_traced(traced)}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
