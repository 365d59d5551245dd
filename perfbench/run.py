"""Run one lesionseg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train64 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from its
``src/`` directory. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run. Results, the environment record and,
for traced runs, every span go to ``.perfbench/<workload>/`` in the
checkout. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import os

# pinned before numpy loads OpenBLAS: one core, one BLAS thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# End-to-end metrics, printed by every workload: (name, unit). What each
# means per workload is in README.md.
END_TO_END = (
    ("throughput", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads() -> int | None:
    """Thread count OpenBLAS itself reports, found among the loaded libraries."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_reported": _blas_threads(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def end_to_end(workload, m) -> tuple[dict, list[str]]:
    """The end-to-end metric values, and the report lines behind them.

    The report also gives what the JSON line leaves out: the latency of
    the first and last items of each unit, the quality of the outputs, and
    each sample count.
    """
    from workloads import EDGE_ITEMS, latency_summary
    lat = latency_summary(m.units)
    items = sum(u.items for u in m.units)
    busy = sum(u.busy_s for u in m.units)
    values = {
        "throughput": items / busy,
        "latency_ms.p50": lat["p50"],
        "latency_ms.tail": lat["tail"],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(m.setup_s),
    }
    n, item, rate_item = lat["n"], workload.item, workload.rate_item
    lines = [
        f"{rate_item}s_per_s = {values['throughput']:.4f} 1/s "
        f"({items} {rate_item}s in {busy:.3f} s, {len(m.units)} units)",
        f"{item}_ms.p50 = {lat['p50']:.3f} ms (n={n})",
        f"{item}_ms.tail = {lat['tail']:.3f} ms (p{lat['tail_percentile']:.1f}, n={n})",
        f"{item}_ms.early = {lat['early']:.3f} ms "
        f"(median of the first {EDGE_ITEMS} {item}s of each unit)",
        f"{item}_ms.late = {lat['late']:.3f} ms "
        f"(median of the last {EDGE_ITEMS} {item}s of each unit)",
        f"{workload.loss_label} = {statistics.fmean(u.loss for u in m.units):.6f} nats",
    ]
    if m.units[0].dice is not None:
        lines.append(f"dice = {m.units[0].dice:.6f} (macro, held-out)")
    lines += [
        f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB",
        f"setup_s = {values['setup_s']:.4f} s (median of {len(m.setup_s)} samples)",
    ]
    return values, lines


def main(argv=None, scale=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lesionseg").is_dir():
        print(f"error: no lesionseg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    from tracing import LAYER_METRICS, OVERHEAD_METRIC, Tracer
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, out / "work", scale if scale is not None else workloads.FULL)
    tracer = Tracer() if args.trace else None
    m = workloads.measure(workload, args.seconds, tracer)

    checked = m.units + m.traced
    failures = [f for u in checked for f in u.failures] + m.errors
    failed = sum(1 for u in checked if u.failures) + len(m.errors)
    attempted = len(checked) + len(m.errors)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    metrics: dict[str, dict] = {}
    if m.units:
        values, lines = end_to_end(workload, m)
        lines.append(f"failed_ratio = {failed / attempted:.4f} ({failed} of {attempted} units)")
        print("\n".join("  " + line for line in lines))
        if tracer is None:
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for failure in failures:
        print(f"  FAILED {failure}")
    if tracer is not None:
        layer = tracer.layer_metrics(max(1, len(m.traced)))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _, _ in LAYER_METRICS}
        if m.overhead_ratio is not None:
            metrics[OVERHEAD_METRIC[0]] = {"value": m.overhead_ratio, "unit": OVERHEAD_METRIC[1]}
        traced_wall = sum(u.busy_s for u in m.traced)
        print(f"  per unit of work, over {len(m.traced)} traced units "
              f"({traced_wall:.3f} s, {len(tracer.names)} spans):")
        for name, metric in metrics.items():
            print(f"    {name} = {metric['value']:.6g} {metric['unit']}")
        tracer.write_spans(out / "spans.tsv")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out / "environment.json").write_text(json.dumps(environment(), indent=1) + "\n")
    (out / "samples.json").write_text(json.dumps(
        {"setup_s": m.setup_s, "latency_ms": [u.latencies_ms for u in m.units]}) + "\n")
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
