"""Command-line interface.

Two subcommands cover the common workflows without writing any Python:

``run``
    Run a single scenario (cluster + workload + monitoring + controller) and
    print the headline report — the same thing ``examples/quickstart.py``
    does, but parameterised from the command line::

        python -m repro.cli run --policy sla_driven --duration 600 --rate 140

    Scenario variants can reshape the request path declaratively: pass an
    ordered middleware list and, when the ``consistency-override`` stage is
    included, per-operation consistency levels::

        python -m repro.cli run \
            --middleware replica-selection,consistency,consistency-override,hinted-handoff,read-repair,staleness,monitoring-hooks \
            --consistency-override read=ONE --consistency-override update=QUORUM

    A multi-tenant run draws every operation from a skewed tenant population
    and (optionally) shields co-tenants with per-tenant token buckets::

        python -m repro.cli run --tenants 200 --admission-control

    A fault campaign stresses the run with scheduled gray failures and
    lifecycle churn (fail-slow nodes, flaky links, rolling restarts) — fully
    reproducible from ``--fault-seed``::

        python -m repro.cli run --faults campaign --fault-seed 29
        python -m repro.cli run --faults degrade:node=0,at=120,factor=0.3,duration=90

``experiment``
    Run one of the E1–E9 experiments (or ``all``) and print its regenerated
    tables::

        python -m repro.cli experiment E5 --scale 0.35

The CLI is intentionally a thin veneer over the public API; everything it can
do is also available programmatically.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Optional, Sequence

from .cluster.cluster import ClusterConfig
from .cluster.errors import POSITIVE, check
from .cluster.faults import FAULT_KIND_FIELDS, FaultPlan, FaultSpec
from .cluster.node import NodeConfig
from .cluster.types import ConsistencyLevel
from .core.controller import ControllerConfig
from .middleware import (
    ADMISSION_CONTROL_PIPELINE,
    CONSISTENCY_OVERRIDE_PIPELINE,
    HEDGED_PIPELINE,
    available_middlewares,
)
from .experiments import EXPERIMENTS, run_all_experiments
from .runner import Simulation, SimulationConfig
from .workload.generator import CONSISTENCY_OVERRIDE_KINDS, WorkloadSpec
from .workload.tenants import TenantSpec
from .workload.load_shapes import ConstantLoad, DiurnalLoad, FlashCrowdLoad
from .workload.operations import BALANCED, READ_HEAVY, WRITE_HEAVY

__all__ = ["build_parser", "build_simulation_config", "main"]

_MIXES = {"read_heavy": READ_HEAVY, "balanced": BALANCED, "write_heavy": WRITE_HEAVY}
_POLICIES = ("static", "overprovisioned", "reactive_threshold", "predictive", "sla_driven")
_SHAPES = ("constant", "diurnal", "flash")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLA-driven monitoring and smart auto-scaling of NoSQL systems",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run a single scenario")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--duration", type=float, default=600.0, help="simulated seconds")
    run_parser.add_argument("--nodes", type=int, default=3, help="initial node count")
    run_parser.add_argument("--replication-factor", type=int, default=3)
    run_parser.add_argument("--node-capacity", type=float, default=150.0, help="ops/s per node")
    run_parser.add_argument("--rate", type=float, default=120.0, help="offered ops/s")
    run_parser.add_argument("--mix", choices=sorted(_MIXES), default="balanced")
    run_parser.add_argument("--shape", choices=_SHAPES, default="constant")
    run_parser.add_argument("--policy", choices=_POLICIES, default="sla_driven")
    run_parser.add_argument(
        "--read-consistency", choices=[level.value for level in ConsistencyLevel], default="ONE"
    )
    run_parser.add_argument(
        "--write-consistency", choices=[level.value for level in ConsistencyLevel], default="ONE"
    )
    run_parser.add_argument(
        "--middleware",
        type=str,
        default=None,
        metavar="NAME[,NAME...]",
        help=(
            "ordered request-pipeline middleware names "
            f"(default: the built-in stack; available: {', '.join(available_middlewares())})"
        ),
    )
    run_parser.add_argument(
        "--hedge-reads",
        action="store_true",
        help=(
            "use the tail-latency stack: latency-aware read routing, "
            "speculative (hedged) backup reads and RTT-aware write "
            "fan-out/coordinator preference; implies the hedged pipeline "
            "unless --middleware names one explicitly (which must then "
            "include request-hedging)"
        ),
    )
    run_parser.add_argument(
        "--hedge-budget-fraction",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "static hedge budget as a fraction of the operation timeout "
            "(default 0.05; only meaningful with request-hedging installed)"
        ),
    )
    run_parser.add_argument(
        "--consistency-override",
        action="append",
        default=None,
        metavar="KIND=LEVEL",
        help=(
            "per-operation consistency override (KIND in read/update/insert, "
            "LEVEL a consistency level); repeatable; implies the "
            "consistency-override pipeline unless --middleware names one "
            "explicitly (which must then include consistency-override)"
        ),
    )
    run_parser.add_argument(
        "--tenants",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run a multi-tenant workload with N tenants (Zipf-skewed "
            "popularity, gold/silver/bronze SLO tiers assigned by rank); "
            "omitted = the classic single-tenant workload"
        ),
    )
    run_parser.add_argument(
        "--tenant-skew",
        type=float,
        default=1.1,
        metavar="THETA",
        help="Zipf-like skew of tenant popularity (only with --tenants)",
    )
    run_parser.add_argument(
        "--admission-control",
        action="store_true",
        help=(
            "install per-tenant token-bucket admission control with "
            "tier-derived quotas; implies the admission-control pipeline "
            "unless --middleware names one explicitly (which must then "
            "include admission-control); requires --tenants"
        ),
    )
    run_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help=(
            "sharded parallel mode: partition the scenario into K independent "
            "shards (disjoint key slices, 1/K of the arrival process each), "
            "run them in worker processes and merge the reports through exact "
            "order-independent reducers; omitted = the classic single-process "
            "run"
        ),
    )
    run_parser.add_argument(
        "--serial-shards",
        action="store_true",
        help=(
            "with --shards: run the shards in this process instead of worker "
            "processes (same merged figures, no parallelism; useful for "
            "debugging and constrained environments)"
        ),
    )
    run_parser.add_argument(
        "--open-loop",
        action="store_true",
        help=(
            "chunked draws on per-type streams: gap/mix/key/size draws come "
            "from dedicated per-type RNG streams consumed in chunks instead "
            "of interleaved on one stream (a new scenario mode on new stream "
            "names, so results differ by design; arrivals are an open-loop "
            "Poisson process either way)"
        ),
    )
    run_parser.add_argument(
        "--faults",
        action="append",
        default=None,
        metavar="KIND[:k=v,...]",
        help=(
            "inject a scheduled fault (repeatable). KIND is one of "
            "crash, degrade, flaky-link, partition, restart, campaign; "
            "parameters are comma-separated key=value pairs, e.g. "
            "'degrade:node=0,at=120,factor=0.3,duration=90', "
            "'flaky-link:node=0,peer=1,at=60,duration=120,drop=0.1,delay=0.002', "
            "'restart:at=200,downtime=15,settle=30', or 'campaign:faults=6' "
            "(a mixed chaos campaign sampled from --fault-seed)"
        ),
    )
    run_parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="N",
        help=(
            "seed of the generated fault campaign (with --faults campaign); "
            "the same seed reproduces the identical campaign. Defaults to "
            "--seed"
        ),
    )
    run_parser.add_argument("--json", action="store_true", help="print the full report as JSON")

    experiment_parser = subparsers.add_parser("experiment", help="run an E1-E9 experiment")
    experiment_parser.add_argument(
        "experiment", choices=sorted(EXPERIMENTS) + ["all"], help="experiment id"
    )
    experiment_parser.add_argument("--seed", type=int, default=1)
    experiment_parser.add_argument("--scale", type=float, default=1.0)
    experiment_parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="N",
        help="fault-campaign seed for E9 (same seed -> bit-identical report)",
    )
    return parser


def _build_load_shape(args: argparse.Namespace):
    if args.shape == "constant":
        return ConstantLoad(args.rate)
    if args.shape == "diurnal":
        return DiurnalLoad(
            trough_rate=args.rate * 0.3, peak_rate=args.rate, period=args.duration
        )
    return FlashCrowdLoad(
        base_rate=args.rate * 0.4,
        spike_rate=args.rate,
        spike_start=args.duration * 0.4,
        ramp_duration=max(30.0, args.duration * 0.05),
        hold_duration=args.duration * 0.2,
        decay_duration=args.duration * 0.2,
    )


def _parse_middleware(value: Optional[str]) -> Optional[tuple]:
    if not value:
        return None
    names = tuple(name.strip() for name in value.split(","))
    available = available_middlewares()
    problems = []
    if "" in names:
        problems.append("an empty name")
    distinct = [name for name in dict.fromkeys(names) if name]
    unknown = [name for name in distinct if name not in available]
    if unknown:
        problems.append("unknown " + ", ".join(map(repr, unknown)))
    repeated = [name for name in distinct if names.count(name) > 1]
    if repeated:
        problems.append("more than once " + ", ".join(map(repr, repeated)))
    if problems:
        raise SystemExit(
            f"invalid --middleware {value!r}: {'; '.join(problems)} "
            f"(available: {', '.join(available)})"
        )
    return names


def _parse_consistency_overrides(entries: Optional[Sequence[str]]):
    overrides = {}
    for entry in entries or ():
        kind, separator, level = entry.partition("=")
        kind = kind.strip().lower()
        if not separator or kind not in CONSISTENCY_OVERRIDE_KINDS:
            raise SystemExit(
                f"invalid --consistency-override {entry!r}; expected KIND=LEVEL "
                f"with KIND in {'/'.join(CONSISTENCY_OVERRIDE_KINDS)}"
            )
        if kind in overrides:
            raise SystemExit(
                f"repeated --consistency-override kind {kind!r} in {entry!r}; "
                "give each operation kind at most once"
            )
        try:
            overrides[kind] = ConsistencyLevel(level.strip().upper())
        except ValueError:
            valid = ", ".join(item.value for item in ConsistencyLevel)
            raise SystemExit(
                f"invalid consistency level {level.strip()!r}; expected one of {valid}"
            )
    return overrides


_FAULT_KIND_ALIASES = {
    "crash": "crash",
    "degrade": "degrade",
    "flaky-link": "flaky_link",
    "partition": "partition",
    "restart": "restart",
}

#: CLI parameter name -> FaultSpec field (identity unless listed).
_FAULT_PARAM_FIELDS = {"drop": "drop_probability", "delay": "extra_delay"}
_FAULT_INT_KEYS = frozenset({"node", "peer", "faults"})
_FAULT_FLOAT_KEYS = frozenset(
    {"at", "duration", "factor", "drop", "delay", "downtime", "settle"}
)


def _parse_fault_entry(entry: str):
    """Split one ``--faults`` value into (kind token, typed parameter dict)."""
    kind_token, _, params_token = entry.partition(":")
    kind_token = kind_token.strip().lower()
    params = {}
    if params_token.strip():
        for item in params_token.split(","):
            key, separator, value = item.partition("=")
            key = key.strip().lower()
            if not separator or not key:
                raise SystemExit(
                    f"invalid --faults parameter {item!r} in {entry!r}; "
                    "expected comma-separated key=value pairs"
                )
            if key not in _FAULT_INT_KEYS and key not in _FAULT_FLOAT_KEYS:
                raise SystemExit(
                    f"unknown --faults parameter {key!r} in {entry!r}"
                )
            if key in params:
                raise SystemExit(
                    f"repeated --faults parameter {key!r} in {entry!r}"
                )
            try:
                params[key] = (
                    int(value) if key in _FAULT_INT_KEYS else float(value)
                )
            except ValueError:
                raise SystemExit(
                    f"invalid --faults value {value!r} for {key!r} in {entry!r}"
                )
    return kind_token, params


def _build_fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """Translate ``--faults`` / ``--fault-seed`` into a :class:`FaultPlan`."""
    entries = getattr(args, "faults", None)
    fault_seed = getattr(args, "fault_seed", None)
    if not entries:
        if fault_seed is not None:
            raise SystemExit(
                "--fault-seed requires --faults (e.g. --faults campaign)"
            )
        return None
    seed = fault_seed if fault_seed is not None else args.seed
    specs = []
    for entry in entries:
        kind_token, params = _parse_fault_entry(entry)
        if kind_token == "campaign":
            count = params.pop("faults", 6)
            if params:
                raise SystemExit(
                    f"--faults campaign only accepts faults=N, got {entry!r}"
                )
            specs.extend(
                FaultPlan.generate(
                    seed, args.duration, faults=count, nodes=args.nodes
                ).specs
            )
            continue
        kind = _FAULT_KIND_ALIASES.get(kind_token)
        if kind is None:
            valid = ", ".join(sorted(_FAULT_KIND_ALIASES) + ["campaign"])
            raise SystemExit(
                f"unknown fault kind {kind_token!r} in {entry!r}; "
                f"expected one of {valid}"
            )
        if "faults" in params:
            raise SystemExit(
                f"the faults= parameter only applies to campaign, got {entry!r}"
            )
        if "at" not in params:
            raise SystemExit(f"--faults {entry!r} needs at=<seconds>")
        kwargs = {
            _FAULT_PARAM_FIELDS.get(key, key): value
            for key, value in params.items()
        }
        accepted = FAULT_KIND_FIELDS[kind]
        unread = [
            key for key in params if _FAULT_PARAM_FIELDS.get(key, key) not in accepted
        ]
        if unread:
            keys = {field: key for key, field in _FAULT_PARAM_FIELDS.items()}
            raise SystemExit(
                f"--faults {entry!r}: {kind_token} does not read "
                f"{', '.join(map(repr, unread))}; it accepts "
                f"{', '.join(keys.get(field, field) for field in accepted)}"
            )
        try:
            specs.append(FaultSpec(kind=kind, **kwargs))
        except (TypeError, ValueError) as error:
            raise SystemExit(f"invalid --faults {entry!r}: {error}")
    return FaultPlan(specs=tuple(specs), seed=seed)


def build_simulation_config(args: argparse.Namespace) -> SimulationConfig:
    """Translate parsed ``run`` arguments into a :class:`SimulationConfig`."""
    middleware = _parse_middleware(getattr(args, "middleware", None))
    overrides = _parse_consistency_overrides(
        getattr(args, "consistency_override", None)
    )
    if overrides:
        if middleware is None:
            # Overrides only act through the consistency-override stage;
            # asking for them implies the pipeline that honours them.
            middleware = CONSISTENCY_OVERRIDE_PIPELINE
        elif "consistency-override" not in middleware:
            raise SystemExit(
                "--consistency-override requires the consistency-override "
                "middleware; add it to --middleware or drop the flag"
            )
    if getattr(args, "hedge_reads", False):
        if middleware is None:
            middleware = HEDGED_PIPELINE
        elif "request-hedging" not in middleware:
            raise SystemExit(
                "--hedge-reads requires the request-hedging middleware; "
                "add it to --middleware or drop the flag"
            )
    tenants = getattr(args, "tenants", None)
    if getattr(args, "admission_control", False):
        if tenants is None:
            raise SystemExit(
                "--admission-control requires --tenants (quotas are keyed by "
                "tenant identity)"
            )
        if middleware is None:
            middleware = ADMISSION_CONTROL_PIPELINE
        elif "admission-control" not in middleware:
            raise SystemExit(
                "--admission-control requires the admission-control "
                "middleware; add it to --middleware or drop the flag"
            )
    tenant_spec = None
    if tenants is not None:
        tenant_spec = TenantSpec(
            tenants=tenants, popularity_skew=getattr(args, "tenant_skew", 1.1)
        )
    middleware_params = None
    budget_fraction = getattr(args, "hedge_budget_fraction", None)
    if budget_fraction is not None:
        if middleware is None or "request-hedging" not in middleware:
            raise SystemExit(
                "--hedge-budget-fraction only applies when the "
                "request-hedging middleware is installed (e.g. --hedge-reads)"
            )
        middleware_params = {"request-hedging": {"budget_fraction": budget_fraction}}
    return SimulationConfig(
        seed=args.seed,
        duration=args.duration,
        cluster=ClusterConfig(
            initial_nodes=args.nodes,
            replication_factor=min(args.replication_factor, args.nodes),
            read_consistency=ConsistencyLevel(args.read_consistency),
            write_consistency=ConsistencyLevel(args.write_consistency),
            node=NodeConfig(ops_capacity=args.node_capacity),
        ),
        workload=WorkloadSpec(
            record_count=5_000,
            operation_mix=_MIXES[args.mix],
            load_shape=_build_load_shape(args),
            consistency_overrides=overrides,
            tenants=tenant_spec,
            open_loop=getattr(args, "open_loop", False),
        ),
        controller=ControllerConfig(policy=args.policy),
        middleware=middleware,
        middleware_params=middleware_params,
        faults=_build_fault_plan(args),
        label=f"cli-{args.policy}",
    )


@contextlib.contextmanager
def _refusing_bad_values():
    """End the program with a validator's message in place of its traceback.

    Wraps building the scenario only: once it runs, a ``ValueError`` is a bug
    and keeps its traceback.  An experiment builds its scenarios as it goes,
    so its whole command is wrapped.
    """
    try:
        yield
    except ValueError as error:
        raise SystemExit(f"invalid configuration: {error}") from None


def _command_run(args: argparse.Namespace) -> int:
    shards = getattr(args, "shards", None)
    if shards is not None:
        return _command_run_sharded(args, shards)
    with _refusing_bad_values():
        simulation = Simulation(build_simulation_config(args))
    report = simulation.run()
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, default=str))
        return 0
    print(f"scenario          : {report.label} (seed {report.seed})")
    for key, value in report.headline().items():
        print(f"{key:24s}: {value:.4f}")
    print(f"final configuration     : {report.final_configuration}")
    print(f"controller actions      : {report.controller_summary['actions_executed']:.0f}")
    return 0


def _command_run_sharded(args: argparse.Namespace, shards: int) -> int:
    if shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {shards}")
    # Imported lazily: the sharding layer pulls in multiprocessing plumbing
    # that a classic run never needs.
    from .simulation.sharding import run_sharded

    with _refusing_bad_values():
        config = build_simulation_config(args)
        config.cluster.validate()
    report = run_sharded(
        config, shards, parallel=not getattr(args, "serial_shards", False)
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, default=str))
        return 0
    print(f"scenario          : {report.label} (seed {report.seed}, {shards} shards)")
    for key, value in report.headline().items():
        print(f"{key:24s}: {value:.4f}")
    timing = report.timing
    print(f"wall seconds            : {timing['wall_seconds']:.2f}")
    print(f"aggregate events/sec    : {timing['aggregate_events_per_second']:.0f}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    fault_seed = getattr(args, "fault_seed", None)
    if fault_seed is not None and args.experiment != "E9":
        raise SystemExit("--fault-seed only applies to experiment E9")
    with _refusing_bad_values():
        check("experiment", "scale", args.scale, POSITIVE)
        if args.experiment == "all":
            results = run_all_experiments(seed=args.seed, scale=args.scale)
        else:
            kwargs = {} if fault_seed is None else {"fault_seed": fault_seed}
            module = EXPERIMENTS[args.experiment]
            results = {args.experiment: module.run(seed=args.seed, scale=args.scale, **kwargs)}
    for result in results.values():
        print(result.render())
        if args.experiment == "all":
            print()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "experiment":
        return _command_experiment(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess only
    sys.exit(main())
