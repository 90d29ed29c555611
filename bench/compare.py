"""``python -m bench compare A.json B.json``: B against A, metric by metric.

For every (workload, end-to-end metric): both values, the relative
delta, and a verdict against the metric's bound in ``BENCHMARK.json`` --
``same``, ``worse``, ``better``, or, for a time, ``unresolved`` when
either run is flagged ``noisy`` or a run's own per-repetition spread
(quartile distance over median) exceeds the bound.  Also says whether each
``result_digest`` and each exact count (``*.events``, ``sim.events_total``,
``sim.snapshot.restore_count``) is identical, which a simulator-only
speed-up can be required to keep.

Exit code 1 if any pair is ``worse``, any digest differs, or either run
has failed operations; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import Any, Dict, List, Optional, Sequence

from bench import load_spec


def spread(samples: Sequence[float]) -> float:
    """Quartile distance over median; 0 for fewer than two samples."""
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: Dict[str, Any], b: Dict[str, Any], metric: Dict[str, Any]) -> Dict[str, Any]:
    """Compare one end-to-end metric of workload results ``a`` and ``b``."""
    name, bound = metric["name"], metric["bound"]
    va = a["metrics"].get(name, {}).get("value")
    vb = b["metrics"].get(name, {}).get("value")
    if va is None or vb is None:
        return {"a": va, "b": vb, "delta": None,
                "verdict": "absent" if va is vb else "unresolved"}
    delta = (vb - va) / va
    worse_by = delta if metric["better"] == "lower" else -delta
    spreads = [spread(r["samples"].get(name, ())) for r in (a, b)]
    timing = metric["unit"] == "s"  # host noise cannot move memory or paper error
    if timing and (a.get("noisy") or b.get("noisy") or max(spreads) > bound):
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    elif worse_by < -bound:
        outcome = "better"
    else:
        outcome = "same"
    return {"a": va, "b": vb, "delta": delta, "verdict": outcome}


def exact_counts(result: Dict[str, Any]) -> Dict[str, float]:
    layers = result.get("layers") or {}
    return {
        name: value for name, value in layers.items()
        if name.endswith((".events", ".events_total", ".restore_count"))
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("a", help="results.json of the parent (or first) run")
    parser.add_argument("b", help="results.json of the change (or second) run")
    args = parser.parse_args(argv)
    spec = load_spec()
    with open(args.a, encoding="utf-8") as handle:
        run_a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        run_b = json.load(handle)
    if run_a["seed"] != run_b["seed"]:
        print(f"note: seeds differ ({run_a['seed']} vs {run_b['seed']}); "
              "digests and counts are expected to differ")

    bad: List[str] = []
    print(f"{'workload':<14} {'metric':<14} {'A':>11} {'B':>11} {'delta':>8}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        a, b = run_a["workloads"].get(name), run_b["workloads"].get(name)
        if a is None or b is None:
            print(f"{name:<14} missing from {'A' if a is None else 'B'}")
            continue
        for metric in spec["end_to_end"]:
            row = verdict(a, b, metric)
            if row["verdict"] == "absent":
                continue
            if row["delta"] is None:
                cells = f"{row['a']!s:>11} {row['b']!s:>11} {'-':>8}"
            else:
                cells = f"{row['a']:>11.4f} {row['b']:>11.4f} {row['delta']:>+8.1%}"
            print(f"{name:<14} {metric['name']:<14} {cells}  {row['verdict']}")
            if row["verdict"] == "worse":
                bad.append(f"{name}.{metric['name']} is worse")
        same_digest = a["result_digest"] == b["result_digest"]
        counts_a, counts_b = exact_counts(a), exact_counts(b)
        moved = sorted(k for k in counts_a if counts_b.get(k, counts_a[k]) != counts_a[k])
        counts = "not traced" if not (counts_a and counts_b) else (
            "identical" if not moved else "differ: " + ", ".join(moved))
        print(f"{name:<14} result_digest {'identical' if same_digest else 'DIFFERS'}; "
              f"exact counts {counts}; ops_failed {a['ops_failed']} / {b['ops_failed']}")
        if not same_digest and run_a["seed"] == run_b["seed"]:
            bad.append(f"{name} result_digest differs")
        if a["ops_failed"] or b["ops_failed"]:
            bad.append(f"{name} has failed operations")
    for line in bad:
        print(f"FAIL: {line}")
    return 1 if bad else 0
