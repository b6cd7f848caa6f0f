"""The repo benchmark: publish -> visible at a subscribed LMR.

    python3 benchmarks/e2e/run.py --workload oid_fanout --seed 1 \\
        --seconds 10 --trace 0

runs one workload in this process and prints, as the last line of its
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones).  Without ``--workload`` every
workload runs in a fresh child process and the results are collected in
``benchmarks/e2e/out/results.json``, the input of ``--compare``.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MANIFEST = BENCH_DIR.parents[1] / "BENCHMARK.json"


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def _list(manifest: dict) -> int:
    print("workloads:")
    for workload in manifest["workloads"]:
        print(f"  {workload['name']:<14} {workload['why']}")
    print("end-to-end metrics (bound = relative worsening that fails):")
    for metric in manifest["end_to_end"]:
        print(
            f"  {metric['name']:<28} {metric['unit']:<7} "
            f"{metric['better']:<7} bound {metric['bound']}"
        )
    print("per-layer metrics (traced pass, no bound):")
    for metric in manifest["per_layer"]:
        print(
            f"  {metric['name']:<46} {metric['unit']:<7} {metric['better']}"
        )
    return 0


def _compare(manifest: dict, base_path: str, change_path: str) -> int:
    from report import compare

    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    change = json.loads(Path(change_path).read_text(encoding="utf-8"))
    return compare(base, change, manifest["end_to_end"])


def _contract_line(result: dict) -> str:
    """The driver's result object.  A metric whose wrap point is gone
    reads 0 here (and ``null`` in the table and the result file)."""
    metrics = {
        name: {
            "value": metric["value"] if metric["value"] is not None else 0.0,
            "unit": metric["unit"],
        }
        for name, metric in result["metrics"].items()
    }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def _run_one(args: argparse.Namespace) -> int:
    from report import print_result
    from workloads import SCALES, run_workload

    spec = SCALES[args.scale][args.workload]
    result = run_workload(
        spec,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    print_result(result)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result), encoding="utf-8")
    print(_contract_line(result), flush=True)
    return 0 if result["correct"] else 1


def _run_all(args: argparse.Namespace, manifest: dict) -> int:
    """Each workload in a fresh child process (state isolation, its own
    peak RSS); ``--runs N`` repeats the same seed N times, so what
    differs between the runs of a set is noise, not input."""
    from adapter import OUT_DIR

    runs = []
    status = 0
    for workload in [w["name"] for w in manifest["workloads"]]:
        for _ in range(args.runs):
            part = OUT_DIR / f"run-{workload}.json"
            command = [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale, "--out", str(part),
            ]
            child = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, check=False
            )
            # The child's last line is its machine-readable result.
            print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
            if child.returncode != 0:
                status = 1
            if part.exists():
                runs.append(json.loads(part.read_text(encoding="utf-8")))
                part.unlink()
    out = Path(args.out) if args.out else OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "runs": runs,
    }), encoding="utf-8")
    print(f"results written to {out}")
    print(json.dumps({
        "correct": status == 0 and bool(runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
    }))
    return status


def main(argv: list[str] | None = None) -> int:
    manifest = _manifest()
    names = [workload["name"] for workload in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=manifest["run_seconds"],
        help="run length; scales the number of rounds (fixed counts)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 = the traced pass: per-layer metrics instead of end-to-end",
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument(
        "--runs", type=int, default=1,
        help="without --workload: repeat every workload this often",
    )
    parser.add_argument("--out", help="write the result(s) as JSON here")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)
    # A terminated benchmark still unwinds, so its daemons are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.list:
        return _list(manifest)
    if args.compare:
        return _compare(manifest, *args.compare)
    if args.workload:
        return _run_one(args)
    return _run_all(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
