#!/usr/bin/env python3
"""penrec's benchmark: joint two-stream training and single-stream inference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source tree; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
traces every other operation and reports the per-layer split. The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The line before it holds the full report and the
environment, under the names perfbench/README.md lists. ``--smoke`` runs every workload briefly in both modes and checks
the output against ``BENCHMARK.json``.
"""

import os

# Pinned before numpy loads: BLAS threads make these small matmuls slower.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
SPEC = ROOT / "BENCHMARK.json"


def import_program():
    """Import penrec from this tree's src/, or exit non-zero when it is absent."""
    if not (SRC / "penrec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no penrec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import penrec
    if Path(penrec.__file__).resolve().parent != (SRC / "penrec").resolve():
        sys.exit(f"perfbench: imported penrec from {penrec.__file__}, not from {SRC}")
    import workloads
    return workloads


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(workloads, seed, workload, seconds, trace):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "src_sha256": workloads.source_digest(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def load_spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def result_line(res, spec, trace):
    """The final JSON object, metrics in BENCHMARK.json's order and units."""
    values = res["per_layer"] if trace else res["end_to_end"]
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def layer_table(per_layer):
    """Human-readable per-layer split, largest self time first."""
    per_call = ("training.save_checkpoint", "training.load_checkpoint")
    rows = sorted(((k[:-3], v, per_layer.get(k[:-3] + ".calls")) for k, v in per_layer.items()
                   if k.endswith(".ms") and v > 0 and k[:-3] not in per_call), key=lambda r: -r[1])
    rows += [(name, per_layer[name], None) for name in ("gc.pause_ms", "trace.unattributed_ms")]
    wall = per_layer["trace.wall_ms"]
    lines = [f"{'layer (self time per traced op)':<44} {'ms':>10} {'calls':>8} {'share':>7}"]
    for name, ms, calls in rows:
        calls = "" if calls is None else f"{calls:.1f}"
        lines.append(f"{name:<44} {ms:>10.3f} {calls:>8} {ms / wall:>7.1%}")
    lines.append(f"{'traced wall':<44} {wall:>10.3f} {'':>8} {1:>7.1%}")
    lines.append(f"{'untraced wall':<44} {per_layer['trace.untraced_ms']:>10.3f}")
    for name in per_call:
        lines.append(f"{name + ' (per call)':<44} {per_layer[name + '.ms']:>10.3f} "
                     f"{per_layer[name + '.calls']:>8.1f}")
    return lines


def schema_problems(line, spec, trace):
    """Differences between one result line and the contract in BENCHMARK.json."""
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(line)}")
    if line.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(line.get("attempted"), int) and line["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    if not isinstance(line.get("failed"), int):
        problems.append("failed is not a whole number")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = line.get("metrics", {})
    if list(metrics) != [m["name"] for m in listed]:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in listed})}")
    for m in listed:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: {got}")
        elif not trace and value == 0:
            problems.append(f"{m['name']} is 0")
    return problems


def smoke(workloads):
    spec = load_spec()
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            res = workloads.run_workload(name, 0, 0.0, bool(trace), BUILD, smoke=True)
            line = json.loads(json.dumps(result_line(res, spec, trace)))
            found = schema_problems(line, spec, trace)
            print(f"smoke {name} trace={trace}: {'ok' if not found else found}")
            problems += [f"{name} trace={trace}: {p}" for p in found]
    if problems:
        sys.exit("smoke failed:\n" + "\n".join(problems))
    print("smoke ok")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload briefly and check the output schema")
    ap.add_argument("--build-fixture", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--fixture-steps", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workloads = import_program()

    if args.build_fixture is not None:
        workloads.build_fixture(args.build_fixture, args.fixture_steps)
        return
    if args.smoke:
        smoke(workloads)
        return
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    spec = load_spec()
    trace = bool(args.trace)
    res = workloads.run_workload(args.workload, args.seed, args.seconds, trace, BUILD)
    if trace:
        print("\n".join(layer_table(res["per_layer"])))
    detail = {"environment": environment(workloads, args.seed, args.workload, args.seconds, args.trace),
              "report": res["report"]}
    if trace:
        detail["per_layer"] = res["per_layer"]
    print(json.dumps(detail))
    print(json.dumps(result_line(res, spec, trace)))


if __name__ == "__main__":
    main()
