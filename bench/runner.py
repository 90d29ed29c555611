"""``python -m bench run``: one fresh subprocess per workload, then the report.

Run hygiene: every workload runs in its own interpreter with
``RAIDP_JOBS=1``, every other ``RAIDP_*`` variable unset (scheduler,
solver, snapshot dir, warm start) and ``PYTHONHASHSEED=0``.  The parent
only spawns, waits, prints and writes ``results.json`` / ``trace.json``.

With exactly one ``--workload`` the last stdout line is the one-object
JSON the benchmark driver reads (``--trace 0``: the end-to-end metrics,
``--trace 1``: the per-layer metrics).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from bench import HELD_OUT_SEED, OUT_DIR, ROOT, SRC, WORKING_SEED, load_spec

#: A workload process that runs longer than this is killed and counted failed.
WORKER_TIMEOUT_S = 170

#: ``paper_err_pct`` on the driver's JSON line for a workload that
#: reproduces no paper row.  The driver wants every end-to-end metric
#: from every workload, as a number that is never 0; the report and
#: ``results.json`` omit the metric instead.  High, so that giving such a
#: workload real paper rows later reads as an improvement.
NO_PAPER_ROWS = 100.0


def _worker_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RAIDP_")}
    env["RAIDP_JOBS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def host_info() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def spawn_worker(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; returns its result object."""
    command = [
        sys.executable, "-m", "bench", "_worker",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(traced)), "--spawned-at", repr(time.time()),
    ]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT_S,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        # No result object: the whole workload counts as one failed operation.
        return {
            "workload": name, "seed": seed, "k": 0, "samples": {"wall_s": []},
            "metrics": {}, "ops": 1, "ops_failed": 1, "noisy": True,
            "problems": [f"worker produced no result: {exc!r}"], "result_digest": None,
        }


def _print_report(result: Dict[str, Any], spec: Dict[str, Any]) -> None:
    name = result["workload"]
    flags = " [noisy]" if result.get("noisy") else ""
    print(f"== {name} (seed {result['seed']}, k={result['k']}){flags}")
    for metric in spec["end_to_end"]:
        got = result["metrics"].get(metric["name"])
        if got is None:
            continue  # paper_err_pct on a workload with no paper row
        extra = ""
        if "n" in got:  # wall_s: the whole repetitions beside the per-task sum
            extra = (f"  (repetitions: median {got['median']:.4f}, min {got['min']:.4f}, "
                     f"max {got['max']:.4f}, n={got['n']})")
        print(f"  {metric['name']:<14} {got['value']:>12.4f} {got['unit']}{extra}")
    print(f"  ops {result['ops']}, ops_failed {result['ops_failed']}, "
          f"result_digest {str(result['result_digest'])[:16]}")
    for line in result["problems"]:
        print(f"  FAILED: {line}")
    layers = result.get("layers")
    if layers:
        for metric in spec["per_layer"]:
            print(f"    {metric['name']:<32} {_layer_value(layers, metric)} {metric['unit']}")


def _layer_value(layers: Dict[str, float], metric: Dict[str, Any]) -> str:
    value = layers[metric["name"]]
    return f"{value:>14,.0f}" if metric["unit"] == "count" else f"{value:>14.4f}"


def layers_markdown(result: Dict[str, Any], spec: Dict[str, Any]) -> str:
    """``layers/<workload>.md``: the traced run's per-layer table."""
    layers = result["layers"]
    dispatch = sum(v for k, v in layers.items() if k.endswith(".host_s")) or 1.0
    wall = result["metrics"]["wall_s"]
    lines = [
        f"# {result['workload']}: per-layer metrics (seed {result['seed']})",
        "",
        f"Untraced `wall_s` {wall['value']:.3f} s (n={wall['n']}); "
        f"`result_digest` `{result['result_digest'][:16]}`.  Share = layer "
        "`host_s` over all dispatch `host_s` of the traced repetition.",
        "",
        "| metric | value | unit | share of dispatch |",
        "| --- | ---: | --- | ---: |",
    ]
    for metric in spec["per_layer"]:
        name = metric["name"]
        share = f"{layers[name] / dispatch:.1%}" if name.endswith(".host_s") else ""
        lines.append(
            f"| `{name}` | {_layer_value(layers, metric).strip()} | {metric['unit']} | {share} |"
        )
    return "\n".join(lines) + "\n"


def contract_line(result: Dict[str, Any], spec: Dict[str, Any], traced: bool) -> str:
    """The driver's last-line JSON: correct, attempted, failed, metrics."""
    if traced:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = result.get("layers", {})
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in units.items() if name in layers
        }
    else:
        metrics = {}
        for metric in spec["end_to_end"]:
            got = result["metrics"].get(metric["name"])
            if got is None and metric["name"] == "paper_err_pct" and result["metrics"]:
                got = {"value": NO_PAPER_ROWS}
            if got is not None:
                metrics[metric["name"]] = {"value": got["value"], "unit": metric["unit"]}
    return json.dumps({
        "correct": result["ops_failed"] == 0,
        "attempted": max(1, result["ops"]),
        "failed": result["ops_failed"],
        "metrics": metrics,
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m bench run",
        description="Run the benchmark workloads, each in a fresh subprocess.",
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=WORKING_SEED,
                        help=f"input seed ({WORKING_SEED} = working seed, "
                        f"{HELD_OUT_SEED} = held-out seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed repetitions run until this many seconds are used "
                        "(never fewer than 3 repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run only (per-layer metrics)")
    parser.add_argument("--traced", action="store_true",
                        help="run each workload twice: untraced, then traced")
    parser.add_argument("--smoke", action="store_true",
                        help="k=1, 2 chaos seeds, 8 MC trials (for bench/test_bench.py)")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"),
                        help="results JSON (trace.json is written beside it)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2

    passes = [False, True] if args.traced else [bool(args.trace)]
    results: Dict[str, Dict[str, Any]] = {}
    spans: List[Dict[str, Any]] = []
    for name in args.workload or names:
        for traced in passes:
            result = spawn_worker(name, args.seed, args.seconds, traced, args.smoke)
            spans.extend(result.pop("spans", []))
            if traced and name in results:
                # The untraced pass owns the end-to-end numbers; the traced
                # pass adds its layers and must agree on the outputs.
                untraced = results[name]
                untraced["layers"] = result.get("layers")
                untraced["ops_failed"] += result["ops_failed"]
                untraced["problems"] += result["problems"]
                if result["result_digest"] != untraced["result_digest"]:
                    untraced["ops_failed"] += 1
                    untraced["problems"].append("traced run's digest differs")
            else:
                results[name] = result
        _print_report(results[name], spec)

    report = {
        "schema": "raidp-bench-v1",
        "host": host_info(),
        "commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": results,
    }
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    if spans:
        with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as handle:
            json.dump({"schema": "raidp-bench-trace-v1", "spans": spans}, handle)
            handle.write("\n")
        os.makedirs(os.path.join(out_dir, "layers"), exist_ok=True)
        for name, result in results.items():
            if result.get("layers") and result["metrics"]:
                path = os.path.join(out_dir, "layers", f"{name}.md")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(layers_markdown(result, spec))
    failed = sum(result["ops_failed"] for result in results.values())
    if len(results) == 1:
        (only,) = results.values()
        print(contract_line(only, spec, traced=passes[-1]))
    return 1 if failed else 0
