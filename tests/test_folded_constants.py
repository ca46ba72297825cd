"""The constants that used to be settings stay inside their old bounds.

A setting that only tests ever set became a module constant with its value
at its point of use.  As a field it declared a bound and refused a value
outside it at construction; as a constant nothing constructs it, so a bad
edit would surface mid-run, often as an error that names nothing.  These
tables keep each old bound (or the range its constructor checked) and hold
the constant to it.
"""

from __future__ import annotations

import pytest

from repro.cluster import anti_entropy, coordinator, faults, hinted_handoff, membership, node
from repro.cluster.errors import FRACTION, NON_NEGATIVE, POSITIVE, POSITIVE_FRACTION, Bound
from repro.consistency import window_tracker
from repro.core import forecasting, knowledge, planner, stability
from repro.cost import billing, compensation
from repro.experiments import e6_predictive, scenarios
from repro.middleware import admission, hedging, latency
from repro.monitoring import estimators, metrics
from repro.simulation import engine, interference, network
from repro.workload import generator, operations

#: A count of one or more.
AT_LEAST_ONE = Bound(1)

_BOUNDS = [
    (anti_entropy, "INTERVAL", POSITIVE),
    (anti_entropy, "KEYS_PER_ROUND", NON_NEGATIVE),
    (anti_entropy, "MAX_REPAIRS_PER_ROUND", NON_NEGATIVE),
    (coordinator, "ACK_HISTORY", AT_LEAST_ONE),
    (hinted_handoff, "REPLAY_INTERVAL", POSITIVE),
    (hinted_handoff, "MAX_HINTS", NON_NEGATIVE),
    (hinted_handoff, "HINT_TTL", NON_NEGATIVE),
    (hinted_handoff, "REPLAY_BATCH", AT_LEAST_ONE),
    (membership, "GOSSIP_INTERVAL", POSITIVE),
    (membership, "FAILURE_TIMEOUT", POSITIVE),
    (node, "READ_DEMAND_FACTOR", NON_NEGATIVE),
    (node, "WRITE_DEMAND_FACTOR", NON_NEGATIVE),
    (node, "STREAM_DEMAND_FACTOR", NON_NEGATIVE),
    (node, "REPAIR_DEMAND_FACTOR", NON_NEGATIVE),
    # A NaN service CV silently turned the service noise off: max(0.0, nan)
    # is 0.0.
    (node, "SERVICE_CV", NON_NEGATIVE),
    (node, "MEMORY_CAPACITY_BYTES", NON_NEGATIVE),
    (node, "MEMORY_PRESSURE_THRESHOLD", FRACTION),
    (node, "MUTATION_TIMEOUT", POSITIVE),
    (window_tracker, "MAX_OPEN_AGE", POSITIVE),
    (window_tracker, "EXPIRY_SCAN_INTERVAL", POSITIVE),
    (window_tracker, "EARLY_APPLY_RETENTION", NON_NEGATIVE),
    (forecasting, "EWMA_ALPHA", POSITIVE_FRACTION),
    (forecasting, "HOLT_ALPHA", FRACTION),
    (forecasting, "HOLT_BETA", FRACTION),
    (forecasting, "AR_ORDER", AT_LEAST_ONE),
    (forecasting, "AR_WINDOW", AT_LEAST_ONE),
    (forecasting, "AR_REFIT_EVERY", AT_LEAST_ONE),
    (knowledge, "PRIOR_OPS_PER_NODE", POSITIVE),
    (knowledge, "CAPACITY_LEARNING_RATE", FRACTION),
    (planner, "MIN_NODES", AT_LEAST_ONE),
    (planner, "MAX_NODES", AT_LEAST_ONE),
    (planner, "TARGET_UTILIZATION", POSITIVE_FRACTION),
    (planner, "QUOTA_TIGHTEN_FACTOR", POSITIVE_FRACTION),
    (planner, "QUOTA_FLOOR", FRACTION),
    (planner, "REACTIVE_SCALE_OUT_UTILIZATION", POSITIVE_FRACTION),
    (planner, "REACTIVE_SCALE_IN_UTILIZATION", POSITIVE_FRACTION),
    (stability, "OSCILLATION_WINDOW", POSITIVE),
    (stability, "OSCILLATION_FREEZE", NON_NEGATIVE),
    # The billing prices declared no bound as fields; a price is never negative.
    (billing, "NODE_HOUR_PRICE", NON_NEGATIVE),
    (billing, "SCALING_ACTION_PRICE", NON_NEGATIVE),
    (billing, "RECONFIGURATION_ACTION_PRICE", NON_NEGATIVE),
    (billing, "PROBE_OPERATION_PRICE", NON_NEGATIVE),
    (billing, "ANALYSIS_CPU_HOUR_PRICE", NON_NEGATIVE),
    (compensation, "FAILED_OPERATION_PRICE", NON_NEGATIVE),
    (estimators, "REPORT_INTERVAL", POSITIVE),
    (metrics, "SAMPLE_INTERVAL", POSITIVE),
    (interference, "UPDATE_INTERVAL", POSITIVE),
    (interference, "NODE_REVERSION", FRACTION),
    (interference, "NODE_MIN_SPEED", POSITIVE),
    (interference, "NODE_MAX_SPEED", POSITIVE),
    (interference, "NETWORK_SIGMA", NON_NEGATIVE),
    # A NaN or negative latency stopped a run with "event time must be
    # finite", naming no setting; a zero capacity was a bare
    # ZeroDivisionError; a congestion factor under 1 made a congested
    # network faster.
    (network, "BASE_LATENCY", NON_NEGATIVE),
    (network, "CLIENT_LATENCY", NON_NEGATIVE),
    (network, "JITTER_CV", NON_NEGATIVE),
    (network, "CAPACITY_MSGS_PER_SEC", POSITIVE),
    (network, "CONGESTION_EXPONENT", POSITIVE),
    (network, "MAX_CONGESTION_FACTOR", Bound(1.0)),
    (network, "CONGESTION_WINDOW", POSITIVE),
    (generator, "PRELOAD_FRACTION", FRACTION),
    (generator, "MIN_RATE", POSITIVE),
    (operations, "RECORD_SIZE_CV", NON_NEGATIVE),
    (operations, "MIN_RECORD_SIZE", POSITIVE),
    (operations, "MAX_RECORD_SIZE", POSITIVE),
    (operations, "MEAN_RECORD_SIZE", POSITIVE),
    (forecasting, "PEAK_STEPS", AT_LEAST_ONE),
    # The campaign sizes were never checked; a count is never negative.
    (faults, "GRAY_FAILURE_NODES", AT_LEAST_ONE),
    (faults, "GRAY_FAILURE_DEGRADES", NON_NEGATIVE),
    (faults, "GRAY_FAILURE_FLAKY_LINKS", NON_NEGATIVE),
    (engine, "MAX_DRAIN_EVENTS", AT_LEAST_ONE),
    (scenarios, "RECORD_COUNT", AT_LEAST_ONE),
    (e6_predictive, "UTILIZATION_CEILING", POSITIVE_FRACTION),
    # The stage parameters the factories read, as their constructors checked them.
    (admission, "DEFAULT_RATE", POSITIVE),
    (admission, "DEFAULT_BURST", POSITIVE),
    (hedging, "MIN_BUDGET", POSITIVE),
    (hedging, "BUDGET_REFRESH_INTERVAL", POSITIVE),
    (hedging, "HOT_KEY_FRACTION", POSITIVE_FRACTION),
    (hedging, "HOT_KEY_THRESHOLD", AT_LEAST_ONE),
    (hedging, "HOT_KEY_DECAY_EVERY", AT_LEAST_ONE),
    (hedging.RequestHedging, "timer_wheel_granularity", POSITIVE),
    (latency, "RTT_ALPHA", POSITIVE_FRACTION),
    (latency, "BADNESS_THRESHOLD", NON_NEGATIVE),
    (latency, "EXPLORE_EVERY", Bound(2)),
]


def _short(owner) -> str:
    """``hedging`` for a module, ``RequestHedging`` for a class."""
    return owner.__name__.rsplit(".", 1)[-1]


@pytest.mark.parametrize(
    "module, name, bound",
    [pytest.param(*row, id=f"{_short(row[0])}.{row[1]}") for row in _BOUNDS],
)
def test_every_folded_constant_lies_inside_its_old_bound(module, name, bound):
    value = getattr(module, name)
    assert bound.admits(value), f"{_short(module)}.{name} must be {bound}, got {value!r}"


#: The orderings the old constructors refused to break.  Each reads the
#: modules when it runs, so it sees the constants as the code does.
_ORDERINGS = {
    "planner.MIN_NODES <= MAX_NODES": lambda: planner.MIN_NODES <= planner.MAX_NODES,
    "planner.REACTIVE_SCALE_IN_UTILIZATION < REACTIVE_SCALE_OUT_UTILIZATION": (
        lambda: planner.REACTIVE_SCALE_IN_UTILIZATION < planner.REACTIVE_SCALE_OUT_UTILIZATION
    ),
    "forecasting.AR_ORDER + 1 < AR_WINDOW": (
        lambda: forecasting.AR_ORDER + 1 < forecasting.AR_WINDOW
    ),
    "operations.MIN_RECORD_SIZE <= MAX_RECORD_SIZE": (
        lambda: operations.MIN_RECORD_SIZE <= operations.MAX_RECORD_SIZE
    ),
    # The speed is clamped to [min, max]; reversed, every node runs at max.
    "interference.NODE_MIN_SPEED <= NODE_MAX_SPEED": (
        lambda: interference.NODE_MIN_SPEED <= interference.NODE_MAX_SPEED
    ),
    "faults.CAMPAIGN_KINDS is a non-empty set of fault kinds": (
        lambda: bool(faults.CAMPAIGN_KINDS) and set(faults.CAMPAIGN_KINDS) <= set(faults.FAULT_KINDS)
    ),
}


@pytest.mark.parametrize("ordering", list(_ORDERINGS))
def test_folded_constants_keep_the_order_their_constructors_checked(ordering):
    assert _ORDERINGS[ordering](), ordering
