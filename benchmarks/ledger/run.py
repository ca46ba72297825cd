"""Performance ledger — the repository's benchmark.

    python3 benchmarks/ledger/run.py [--seed 42] [--workload NAME] [--no-trace] [--quick]
    python3 benchmarks/ledger/run.py --layers
    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form is the ledger: every workload (or the named ones), an untraced
pass for the end-to-end metrics and a traced pass for the per-layer ones,
each in a fresh subprocess (``PYTHONHASHSEED=0``, never two at once).  It
prints every metric by name with its unit, writes ``results/latest.json`` and
``results/trace_<workload>.json``, and exits non-zero when a correctness
guard fails.  ``--layers`` runs the isolated per-layer drivers instead.

The last form is the benchmark driver's contract (see ``BENCHMARK.json``):
one pass of one workload, and as the last line of standard output one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

``src/`` is put on ``sys.path`` here, so no ``PYTHONPATH`` is needed.  The
``__main__`` guard matters: ``sharded_k2`` spawns worker processes, which
re-import this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from measure import SPEED_RATIO_WARN
from metrics import END_TO_END, PER_LAYER
from tracing import LAYERS

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
SRC = ROOT / "src"
RESULTS_DIR = LEDGER_DIR / "results"
#: The first full set of numbers, taken when the benchmark was defined; the
#: seed-42 digests every later run is compared against come from it.
RECORDED = LEDGER_DIR / "recorded" / "seed42_run1.json"

#: A pass that has not finished by then is killed (the driver allows 180 s).
PASS_TIMEOUT_S = 170.0
QUICK_DIVISOR = 10.0


def _declared() -> Dict[str, object]:
    """``BENCHMARK.json``: the ledger runs what the driver is told to run."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Child side: one pass in this (fresh) process
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace) -> int:
    from worker import run_pass
    from workloads import BY_NAME

    result = run_pass(BY_NAME[args.workload[0]], args.seed, args.seconds, args.trace == 1)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _spawn_pass(
    workload: str, seed: int, seconds: float, trace: bool, hash_seed: str = "0"
) -> Dict[str, object]:
    """Run one pass in a fresh subprocess and return its result document.

    ``hash_seed`` exists for ``test_ledger.py``, which proves that the exact
    metrics do not depend on it.
    """
    command = [
        sys.executable, str(LEDGER_DIR / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "1" if trace else "0",
    ]
    environment = dict(os.environ, PYTHONHASHSEED=hash_seed)
    # Own session: on a timeout the whole group goes, shard workers included.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=environment, start_new_session=True
    )
    try:
        output, _ = process.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise SystemExit(f"{workload}: pass exceeded {PASS_TIMEOUT_S:.0f} s and was killed")
    if process.returncode != 0:
        raise SystemExit(f"{workload}: pass exited with code {process.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def _recorded_digest(workload: str, seed: int, seconds: float) -> Optional[str]:
    """The digest recorded for these inputs, if any were recorded."""
    if not RECORDED.exists():
        return None
    recorded = json.loads(RECORDED.read_text())
    if recorded["seed"] != seed or recorded["seconds"] != seconds:
        return None
    entry = recorded["workloads"].get(workload)
    return entry["info"]["sim_digest"] if entry else None


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):d}"
    return f"{value:.6g}"


def _print_pass(result: Dict[str, object], end_to_end: bool, per_layer: bool) -> None:
    info = result["info"]
    kind = "traced" if result["traced"] else "untraced"
    print(
        f"\n== {result['workload']}  {kind} pass  seed {result['seed']}  "
        f"{_format(result['seconds'])} s requested = "
        f"{_format(info['sim_duration_s'])} simulated s =="
    )
    if end_to_end:
        print("  end-to-end")
        for metric in END_TO_END:
            print(
                f"    {metric.name:<52} {_format(result['end_to_end'][metric.name]):>14} "
                f"{metric.unit:<6} {metric.better} is better, bound {metric.bound:.0%}"
            )
    if per_layer:
        print("  per-layer")
        for metric in PER_LAYER:
            if metric.name in result["per_layer"]:
                print(
                    f"    {metric.name:<52} {_format(result['per_layer'][metric.name]):>14} "
                    f"{metric.unit:<6} [{metric.kind}]"
                )
    print("  information only (not metrics)")
    for name, value in info.items():
        print(f"    {name:<52} {value if isinstance(value, str) else _format(value):>14}")
    recorded = _recorded_digest(result["workload"], result["seed"], result["seconds"])
    if recorded is not None:
        # Reported, never fatal: a later PR may change behaviour on purpose,
        # but not silently.
        matches = recorded == info["sim_digest"]
        print(f"    {'digest_matches_recorded':<52} {'yes' if matches else 'NO':>14}")
    if info["speed_factor_max"] > SPEED_RATIO_WARN * info["speed_factor_min"]:
        moved = info["speed_factor_max"] / info["speed_factor_min"]
        print(
            f"  WARNING: host speed moved {moved:.2f}x inside this pass; "
            "calibrated figures are least trustworthy then",
            file=sys.stderr,
        )
    for problem in result["problems"]:
        print(f"  GUARD FAILED: {problem}", file=sys.stderr)


def _write_trace_file(result: Dict[str, object]) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    traced = result["trace"]
    document = {
        "workload": result["workload"],
        "seed": result["seed"],
        "seconds": result["seconds"],
        "layers": [{"layer": layer, **traced["layers"][layer]} for layer in LAYERS],
        "calls": traced["calls"],
        "profiled_s": traced["profiled_s"],
        "unattributed_share": traced["unattributed_share"],
        "bench_self_s": traced["bench_self_s"],
        "top_functions": traced["top_functions"],
        "events_by_class": traced["events_by_class"],
    }
    path = RESULTS_DIR / f"trace_{result['workload']}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")


def _driver(args: argparse.Namespace) -> int:
    """One pass, the contract's JSON object as the last line."""
    traced = args.trace == 1
    result = _spawn_pass(args.workload[0], args.seed, args.seconds, traced)
    _print_pass(result, end_to_end=not traced, per_layer=traced)
    if traced:
        _write_trace_file(result)
        values, wanted = result["per_layer"], PER_LAYER
    else:
        values, wanted = result["end_to_end"], END_TO_END
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": int(result["info"]["ops_issued"]),
                "failed": int(result["info"]["lost_ops"]),
                "metrics": {
                    metric.name: {"value": values[metric.name], "unit": metric.unit}
                    for metric in wanted
                },
            }
        )
    )
    return 0


def _cross_check(untraced: Dict[str, object], traced: Dict[str, object]) -> List[str]:
    """Tracing must not change what was simulated."""
    problems = []
    if untraced["info"]["sim_digest"] != traced["info"]["sim_digest"]:
        problems.append("sim_digest differs between the untraced and the traced pass")
    for metric in PER_LAYER:
        if metric.kind not in ("exact", "sim"):
            continue
        before = untraced["per_layer"].get(metric.name)
        after = traced["per_layer"].get(metric.name)
        if before is not None and after is not None and before != after:
            problems.append(f"{metric.name}: untraced {before!r} != traced {after!r}")
    return problems


def _ledger(args: argparse.Namespace, names: List[str]) -> int:
    seconds = args.seconds / QUICK_DIVISOR if args.quick else args.seconds
    document = {"seed": args.seed, "seconds": seconds, "quick": args.quick, "workloads": {}}
    failed = False
    for name in names:
        untraced = _spawn_pass(name, args.seed, seconds, trace=False)
        _print_pass(untraced, end_to_end=True, per_layer=args.no_trace)
        problems = list(untraced["problems"])
        entry = {
            "end_to_end": untraced["end_to_end"],
            "per_layer": dict(untraced["per_layer"]),
            "info": untraced["info"],
        }
        if not args.no_trace:
            traced = _spawn_pass(name, args.seed, seconds, trace=True)
            _print_pass(traced, end_to_end=False, per_layer=True)
            _write_trace_file(traced)
            cross = _cross_check(untraced, traced)
            for problem in cross:
                print(f"  GUARD FAILED: {problem}", file=sys.stderr)
            problems += traced["problems"] + cross
            # Exact and traced-only metrics from the traced pass; host-phase
            # metrics stay the untraced pass's.
            entry["per_layer"] = {**traced["per_layer"], **untraced["per_layer"]}
            overhead = traced["info"]["run_s_raw"] / untraced["info"]["run_s_raw"]
            entry["per_layer"]["trace.overhead_ratio"] = overhead
            entry["traced_info"] = traced["info"]
            print(f"    {'trace.overhead_ratio':<52} {_format(overhead):>14} ratio  [host, raw]")
        entry["problems"] = problems
        failed = failed or bool(problems)
        document["workloads"][name] = entry
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "latest.json").write_text(json.dumps(document, indent=2) + "\n")
    print(f"\nwrote {RESULTS_DIR / 'latest.json'}")
    if failed:
        print("FAILED: at least one correctness guard did not hold", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", action="append", help="repeatable; default: all five")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="requested host seconds of run phase (default: BENCHMARK.json's run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="driver contract: run one pass and print its JSON object last",
    )
    parser.add_argument("--no-trace", action="store_true", help="ledger: skip the traced passes")
    parser.add_argument(
        "--quick", action="store_true",
        help=f"ledger: every duration / {QUICK_DIVISOR:.0f}, for smoke use; bounds mean nothing",
    )
    parser.add_argument("--layers", action="store_true", help="run the isolated per-layer drivers")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the ledger measures src/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = _declared()
    known = [workload["name"] for workload in declared["workloads"]]
    unknown = [name for name in args.workload or [] if name not in known]
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {known}")
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])

    if args.child:
        return _child(args)
    if args.layers:
        import layers

        return layers.main()
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        return _driver(args)
    return _ledger(args, args.workload or known)


if __name__ == "__main__":
    raise SystemExit(main())
