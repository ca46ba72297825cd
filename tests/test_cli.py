"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, build_simulation_config, main
from repro.cluster.types import ConsistencyLevel


def test_parser_defaults_for_run():
    args = build_parser().parse_args(["run"])
    assert args.command == "run"
    assert args.policy == "sla_driven"
    assert args.shape == "constant"
    assert args.duration == 600.0


def test_parser_rejects_unknown_policy_and_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--policy", "magic"])
    with pytest.raises(SystemExit):
        parser.parse_args(["experiment", "E99"])
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_build_simulation_config_translates_arguments():
    args = build_parser().parse_args(
        [
            "run",
            "--seed",
            "9",
            "--duration",
            "120",
            "--nodes",
            "4",
            "--replication-factor",
            "5",
            "--rate",
            "80",
            "--mix",
            "read_heavy",
            "--shape",
            "diurnal",
            "--policy",
            "reactive_threshold",
            "--read-consistency",
            "QUORUM",
        ]
    )
    config = build_simulation_config(args)
    assert config.seed == 9
    assert config.duration == 120.0
    assert config.cluster.initial_nodes == 4
    # RF is clamped to the node count.
    assert config.cluster.replication_factor == 4
    assert config.cluster.read_consistency is ConsistencyLevel.QUORUM
    assert config.controller.policy == "reactive_threshold"
    assert config.workload.operation_mix.read_fraction == pytest.approx(0.95)
    # The diurnal shape peaks at the requested rate.
    assert config.workload.load_shape.rate(config.duration * 0.5) == pytest.approx(80.0, rel=0.05)


def test_build_simulation_config_flash_shape():
    args = build_parser().parse_args(["run", "--shape", "flash", "--rate", "100", "--duration", "200"])
    config = build_simulation_config(args)
    shape = config.workload.load_shape
    assert shape.rate(0.0) == pytest.approx(40.0)
    assert shape.peak_rate(0.0, 200.0) == pytest.approx(100.0, rel=0.05)


def test_cli_run_prints_headline(capsys):
    exit_code = main(
        [
            "run",
            "--duration",
            "60",
            "--rate",
            "40",
            "--nodes",
            "3",
            "--node-capacity",
            "400",
            "--policy",
            "static",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "read_p95_ms" in captured.out
    assert "final configuration" in captured.out


def test_cli_run_json_output(capsys):
    exit_code = main(
        [
            "run",
            "--duration",
            "60",
            "--rate",
            "40",
            "--node-capacity",
            "400",
            "--policy",
            "static",
            "--json",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.out)
    assert payload["label"] == "cli-static"
    assert "workload" in payload and "cost" in payload


def test_parser_accepts_middleware_and_overrides():
    args = build_parser().parse_args(
        [
            "run",
            "--middleware",
            "latency-aware-selection,consistency-override,consistency,monitoring-hooks",
            "--consistency-override",
            "read=ONE",
            "--consistency-override",
            "update=QUORUM",
        ]
    )
    config = build_simulation_config(args)
    assert config.middleware == (
        "latency-aware-selection",
        "consistency-override",
        "consistency",
        "monitoring-hooks",
    )
    assert config.workload.consistency_overrides == {
        "read": ConsistencyLevel.ONE,
        "update": ConsistencyLevel.QUORUM,
    }


@pytest.mark.parametrize(
    "spec, named",
    [
        ("replica-selection,consistencyy", r"unknown 'consistencyy'"),
        ("replica-selection,,consistency", "an empty name"),
        ("replica-selection,consistency,", "an empty name"),
        ("consistency,staleness,consistency", r"more than once 'consistency'"),
        ("hedging,,hedging", r"an empty name; unknown 'hedging'; more than once 'hedging'"),
    ],
)
def test_cli_names_the_bad_middleware_token(spec, named):
    args = build_parser().parse_args(["run", "--middleware", spec])
    with pytest.raises(SystemExit) as refusal:
        build_simulation_config(args)
    message = str(refusal.value)
    assert "\n" not in message and repr(spec) in message
    assert named in message
    # The names that would have been accepted are listed.
    assert "(available: admission-control, consistency, " in message


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--node-capacity", "0"], "NodeConfig.ops_capacity must be finite and > 0, got 0.0"),
        (["--duration", "-5"], "SimulationConfig.duration must be finite and > 0, got -5.0"),
        (["--nodes", "0"], "ClusterConfig.initial_nodes must be finite and >= 1, got 0"),
        (
            ["--replication-factor", "0"],
            "ClusterConfig.replication_factor must be finite and >= 1, got 0",
        ),
        (["--tenants", "0"], "TenantSpec.tenants must be finite and >= 1, got 0"),
        (
            ["--tenants", "5", "--tenant-skew", "-1"],
            "TenantSpec.popularity_skew must be finite and >= 0, got -1.0",
        ),
        (
            ["--hedge-reads", "--hedge-budget-fraction", "7"],
            "request-hedging.budget_fraction must be in (0, 1], got 7.0",
        ),
        (["--duration", "nan"], "SimulationConfig.duration must be finite and > 0, got nan"),
        (["--duration", "inf"], "SimulationConfig.duration must be finite and > 0, got inf"),
        (["--node-capacity", "nan"], "NodeConfig.ops_capacity must be finite and > 0, got nan"),
        # Used to run: a NaN skew made every tenant weight NaN, and every
        # operation went to tenant 0.
        (["--tenants", "5", "--tenant-skew", "nan"], "TenantSpec.popularity_skew"),
        # Used to end in "expected non-negative integer", naming no field.
        (
            ["--faults", "campaign", "--fault-seed", "-1"],
            "FaultPlan.seed must be finite and >= 0, got -1",
        ),
        # An experiment command is a whole argument list.  A NaN, negative or
        # zero scale used to run E3 at its 240 s floor and print a normal
        # table; an infinite scale and a negative seed ended in a traceback.
        (["experiment", "E3", "--scale", "nan"], "experiment.scale must be finite and > 0, got nan"),
        (["experiment", "E3", "--scale", "-1"], "experiment.scale must be finite and > 0, got -1.0"),
        (["experiment", "E3", "--scale", "0"], "experiment.scale must be finite and > 0, got 0.0"),
        (["experiment", "E3", "--scale", "inf"], "experiment.scale must be finite and > 0, got inf"),
        (
            ["experiment", "all", "--scale", "nan"],
            "experiment.scale must be finite and > 0, got nan",
        ),
        (
            ["experiment", "E3", "--seed", "-1"],
            "SimulationConfig.seed must be finite and >= 0, got -1",
        ),
        # Used to end in numpy's ValueError traceback.
        (
            ["experiment", "E9", "--fault-seed", "-1"],
            "FaultPlan.seed must be finite and >= 0, got -1",
        ),
    ],
)
def test_cli_answers_a_bad_number_with_one_line(flags, named):
    experiment = flags[0] == "experiment"
    with pytest.raises(SystemExit) as refusal:
        main(flags if experiment else ["run", "--duration", "20", *flags])
    message = str(refusal.value)
    assert named in message and "\n" not in message
    # The sharded run refuses what it can check before a shard is planned.
    if "--hedge-reads" not in flags and not experiment:
        with pytest.raises(SystemExit) as refusal:
            main(["run", "--duration", "20", "--shards", "2", "--serial-shards", *flags])
        assert named in str(refusal.value)


def test_cli_leaves_a_value_error_from_the_run_its_traceback(monkeypatch):
    def run(self):
        raise ValueError("raised mid-run")

    monkeypatch.setattr("repro.cli.Simulation.run", run)
    with pytest.raises(ValueError, match="raised mid-run"):
        main(["run", "--duration", "20"])


def test_cli_rejects_malformed_consistency_override():
    args = build_parser().parse_args(
        ["run", "--consistency-override", "delete=ONE"]
    )
    with pytest.raises(SystemExit):
        build_simulation_config(args)
    args = build_parser().parse_args(
        ["run", "--consistency-override", "read=SOMETIMES"]
    )
    with pytest.raises(SystemExit):
        build_simulation_config(args)


def test_cli_run_with_middleware_variant(capsys):
    exit_code = main(
        [
            "run",
            "--duration",
            "40",
            "--rate",
            "40",
            "--node-capacity",
            "400",
            "--policy",
            "static",
            "--middleware",
            ",".join(
                (
                    "replica-selection",
                    "consistency-override",
                    "consistency",
                    "hinted-handoff",
                    "read-repair",
                    "staleness",
                    "monitoring-hooks",
                )
            ),
            "--consistency-override",
            "update=QUORUM",
            "--json",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.out)
    assert payload["final_configuration"]["middleware"][1] == "consistency-override"


def test_consistency_override_implies_or_requires_pipeline():
    # No --middleware: the override pipeline is implied.
    args = build_parser().parse_args(["run", "--consistency-override", "update=QUORUM"])
    config = build_simulation_config(args)
    assert "consistency-override" in config.middleware
    # Explicit --middleware without the stage: refuse instead of silently ignoring.
    args = build_parser().parse_args(
        [
            "run",
            "--middleware",
            "replica-selection,consistency,monitoring-hooks",
            "--consistency-override",
            "update=QUORUM",
        ]
    )
    with pytest.raises(SystemExit, match="consistency-override"):
        build_simulation_config(args)


def test_tenant_flags_build_a_tenant_spec():
    args = build_parser().parse_args(
        ["run", "--tenants", "60", "--tenant-skew", "0.9", "--admission-control"]
    )
    config = build_simulation_config(args)
    assert config.workload.tenants is not None
    assert config.workload.tenants.tenants == 60
    assert config.workload.tenants.popularity_skew == 0.9
    assert config.middleware is not None
    assert config.middleware[0] == "admission-control"
    # Tenants without admission control: multi-tenant workload, default stack.
    args = build_parser().parse_args(["run", "--tenants", "10"])
    config = build_simulation_config(args)
    assert config.workload.tenants.tenants == 10
    assert config.middleware is None


def test_admission_control_requires_tenants_and_pipeline_stage():
    args = build_parser().parse_args(["run", "--admission-control"])
    with pytest.raises(SystemExit, match="tenants"):
        build_simulation_config(args)
    args = build_parser().parse_args(
        [
            "run",
            "--tenants",
            "10",
            "--admission-control",
            "--middleware",
            "replica-selection,consistency,monitoring-hooks",
        ]
    )
    with pytest.raises(SystemExit, match="admission-control"):
        build_simulation_config(args)


def test_faults_flag_builds_a_fault_plan():
    from repro.cluster import FaultPlan

    args = build_parser().parse_args(
        [
            "run",
            "--faults",
            "degrade:node=0,at=120,factor=0.3,duration=90",
            "--faults",
            "flaky-link:node=0,peer=1,at=60,duration=120,drop=0.1,delay=0.002",
            "--faults",
            "restart:at=200,downtime=15,settle=30",
        ]
    )
    config = build_simulation_config(args)
    assert isinstance(config.faults, FaultPlan)
    kinds = [spec.kind for spec in config.faults.specs]
    assert kinds == ["degrade", "flaky_link", "restart"]
    degrade = config.faults.specs[0]
    assert degrade.at == 120.0 and degrade.factor == 0.3 and degrade.duration == 90.0
    flaky = config.faults.specs[1]
    assert flaky.drop_probability == 0.1 and flaky.extra_delay == 0.002
    assert flaky.peer == 1


def test_faults_campaign_expands_from_fault_seed():
    from repro.cluster import FaultPlan

    args = build_parser().parse_args(
        ["run", "--faults", "campaign:faults=4", "--fault-seed", "29"]
    )
    config = build_simulation_config(args)
    assert len(config.faults.specs) == 4
    assert config.faults.seed == 29
    # Same fault seed, same campaign — the plan is a pure function of it.
    expected = FaultPlan.generate(29, args.duration, faults=4, nodes=args.nodes)
    assert config.faults.specs == expected.specs
    # Without --fault-seed the campaign derives from the run seed.
    args = build_parser().parse_args(["run", "--seed", "5", "--faults", "campaign"])
    config = build_simulation_config(args)
    assert config.faults.seed == 5
    assert len(config.faults.specs) == 6


def test_faults_flag_rejects_malformed_specs():
    bad = [
        ["run", "--faults", "meteor:at=10"],  # unknown kind
        ["run", "--faults", "degrade:node=0"],  # missing at=
        ["run", "--faults", "degrade:at=10,zap=1"],  # unknown parameter
        ["run", "--faults", "degrade:at=ten"],  # unparseable value
        ["run", "--faults", "degrade:at=10,factor=2.0"],  # FaultSpec range check
        ["run", "--faults", "campaign:faults=2,at=10"],  # campaign + extras
        ["run", "--faults", "crash:at=10,faults=3"],  # faults= outside campaign
        ["run", "--fault-seed", "7"],  # seed without --faults
    ]
    for argv in bad:
        with pytest.raises(SystemExit):
            build_simulation_config(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "entry, names",
    [
        # Used to schedule the heal at t=2, before the partition at t=5.
        ("partition:node=0,at=5,duration=-3", "FaultSpec.duration"),
        ("degrade:at=5,factor=0.5,duration=0", "FaultSpec.duration"),
        ("crash:at=5,duration=inf", "FaultSpec.duration"),
        # ``nan < 0`` is false: used to die in a SchedulingError traceback.
        ("crash:node=0,at=nan", "FaultSpec.at"),
        ("crash:node=0,at=inf", "FaultSpec.at"),
        # The other parameters too: NaN is below no bound, so these parsed,
        # and the first raised out of the run at t=5.
        ("flaky-link:node=0,peer=1,at=5,delay=nan", "FaultSpec.extra_delay"),
        ("restart:at=5,downtime=inf", "FaultSpec.downtime"),
        ("restart:at=5,settle=nan", "FaultSpec.settle"),
    ],
)
def test_faults_flag_rejects_a_window_that_is_not_an_interval(entry, names):
    argv = ["run", "--duration", "20", "--faults", entry]
    with pytest.raises(SystemExit) as raised:
        build_simulation_config(build_parser().parse_args(argv))
    message = str(raised.value)
    assert message.startswith(f"invalid --faults {entry!r}") and names in message


@pytest.mark.parametrize(
    "argv, token, entry",
    [
        # Used to crash at 7: the later value silently won.
        (["--faults", "crash:node=0,at=5,at=7"], "'at'", "'crash:node=0,at=5,at=7'"),
        (["--faults", "degrade:at=5,factor=0.5, FACTOR =0.2"], "'factor'", "FACTOR"),
        # Used to read at ALL.
        (
            ["--consistency-override", "read=ONE", "--consistency-override", "read=ALL"],
            "'read'",
            "'read=ALL'",
        ),
        (
            ["--consistency-override", "update=ONE", "--consistency-override", " Update=ONE"],
            "'update'",
            "' Update=ONE'",
        ),
    ],
)
def test_a_repeated_key_is_an_error_that_names_the_token_and_its_entry(
    argv, token, entry
):
    with pytest.raises(SystemExit) as raised:
        build_simulation_config(build_parser().parse_args(["run", *argv]))
    message = str(raised.value)
    assert "repeated" in message and token in message and entry in message
    assert "\n" not in message


@pytest.mark.parametrize(
    "entry, unread, accepts",
    [
        # Used to restart every node for the default 15 s: both dropped.
        ("restart:at=20,duration=50,node=2", "'duration', 'node'", "at, downtime, settle"),
        ("crash:node=0,at=5,factor=0.3", "'factor'", "at, duration, node"),
        ("partition:node=0,peer=1,at=5,drop=0.4", "'peer', 'drop'", "at, duration, node"),
        ("flaky-link:node=0,peer=1,at=5,downtime=3", "'downtime'", "drop, delay"),
    ],
)
def test_faults_flag_refuses_a_parameter_its_kind_does_not_read(entry, unread, accepts):
    with pytest.raises(SystemExit) as raised:
        build_simulation_config(build_parser().parse_args(["run", "--faults", entry]))
    message = str(raised.value)
    kind = entry.partition(":")[0]
    assert f"{kind} does not read {unread}" in message and entry in message
    assert accepts in message and "\n" not in message


def test_no_faults_flag_means_no_plan():
    config = build_simulation_config(build_parser().parse_args(["run"]))
    assert config.faults is None


def test_experiment_fault_seed_is_e9_only():
    with pytest.raises(SystemExit, match="E9"):
        main(["experiment", "E1", "--fault-seed", "3", "--scale", "0.1"])
