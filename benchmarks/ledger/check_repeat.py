"""Run the full ledger twice on this checkout and compare the two sets.

    python3 benchmarks/ledger/check_repeat.py [--seed 42] [--workload NAME] [--no-trace]

For every workload and end-to-end metric it prints both values, their
difference as a share of the first, and the bound; for every exact metric
(counters, simulated outcomes, ``*.calls_per_op``, the event mix,
``sim_digest``) it demands identity.  Exits non-zero on any breach.  Both
sets are kept as ``results/repeat_1.json`` and ``results/repeat_2.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from metrics import END_TO_END, PER_LAYER

LEDGER_DIR = Path(__file__).resolve().parent
RESULTS_DIR = LEDGER_DIR / "results"


def _run_ledger(arguments: List[str], keep_as: Path) -> Dict[str, object]:
    completed = subprocess.run([sys.executable, str(LEDGER_DIR / "run.py"), *arguments])
    if completed.returncode != 0:
        raise SystemExit(f"run.py exited with code {completed.returncode}")
    shutil.copyfile(RESULTS_DIR / "latest.json", keep_as)
    return json.loads(keep_as.read_text())


def compare(first: Dict[str, object], second: Dict[str, object]) -> List[str]:
    """Print the comparison; return the breaches."""
    breaches: List[str] = []
    for name, one in first["workloads"].items():
        two = second["workloads"][name]
        print(f"\n== {name} ==")
        for metric in END_TO_END:
            a, b = one["end_to_end"][metric.name], two["end_to_end"][metric.name]
            worse = (a - b) / a if metric.better == "higher" else (b - a) / a
            verdict = "ok" if abs(worse) <= metric.bound else "BREACH"
            print(
                f"  {metric.name:<16} {a:>14.6g} {b:>14.6g} {metric.unit:<5} "
                f"second is {worse:+.2%} worse, bound {metric.bound:.0%}  {verdict}"
            )
            if verdict != "ok":
                breaches.append(f"{name}: {metric.name} differs by {worse:+.2%}")
        same_digest = one["info"]["sim_digest"] == two["info"]["sim_digest"]
        if not same_digest:
            breaches.append(f"{name}: sim_digest differs")
        differing = [
            metric.name
            for metric in PER_LAYER
            if metric.kind in ("exact", "sim")
            and one["per_layer"].get(metric.name) != two["per_layer"].get(metric.name)
        ]
        exact = sum(1 for metric in PER_LAYER if metric.kind in ("exact", "sim"))
        print(
            f"  exact metrics identical: {exact - len(differing)} of {exact}; "
            f"sim_digest {'identical' if same_digest else 'DIFFERS'}"
        )
        breaches += [f"{name}: exact metric {metric} differs" for metric in differing]
    return breaches


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args(argv)
    arguments = ["--seed", str(args.seed)]
    for name in args.workload or []:
        arguments += ["--workload", name]
    if args.no_trace:
        arguments.append("--no-trace")

    RESULTS_DIR.mkdir(exist_ok=True)
    first = _run_ledger(arguments, RESULTS_DIR / "repeat_1.json")
    second = _run_ledger(arguments, RESULTS_DIR / "repeat_2.json")
    breaches = compare(first, second)
    for breach in breaches:
        print(f"BREACH: {breach}", file=sys.stderr)
    print("\nrepeat check " + ("FAILED" if breaches else "passed"))
    return 1 if breaches else 0


if __name__ == "__main__":
    raise SystemExit(main())
