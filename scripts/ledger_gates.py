#!/usr/bin/env python3
"""The ledger's exact per-operation gates (CI's ``ledger-smoke`` job runs this).

The gate on speed is a count, not a clock: a traced pass of
``benchmarks/ledger/run.py`` counts the Python calls per operation exactly
(same seed, same number on any machine), so they are compared with ``<=``; the
events, schedules, messages and timer arms per operation must not move at all
(PERFORMANCE.md rule 5).  Wall-clock figures stay advisory.  This file is the
one place a ceiling is written down: raise one only in a PR that says which
layer the extra calls buy something in.

What each ceiling names:

* ``ycsb_b_default`` - the per-layer ceilings are what PR 15 removed
  (PERFORMANCE.md rule 13): a dataclass-generated comparison or hash back on a
  value the request path compares shows up in ``external`` (its frames have no
  source file of ours), a recomputed outcome in ``cluster.replica``; the
  ``middleware`` ceiling is the default stack's bypass of everything the hedged
  stack pays for; the ``simulation.misc`` ceiling is rule 15 (2.13 measured: one
  ``TimeSeries.record`` for the latency, one for the stale flag or the closed
  window) - a second per-operation series, or a ``list.append`` pair per
  sample, puts it back above 3.  The ``cluster.replica`` ceiling is also rule
  17's (11.83 measured, 12.35 while every apply fed a ``VersionHistory``).
* ``autoscale_diurnal`` (50/50 mix, RF 3: the write path) - the ``consistency``
  ceiling is rule 16 (13.23 measured, 18.05 before PR 18): a per-apply buffer,
  or a frame between the coordinator and the tracker, puts it back above 13.45.
  The ``cluster.replica`` and ``cluster.placement`` ceilings are rule 17
  (19.35 and 14.40 measured, 25.19 and 18.60 before PR 20): a per-apply
  structure back in the storage engine puts the first above 19.6, a ring walk
  per key back on the placement miss path (every known key after each
  scale-out) the second above 14.65.
* ``hedged_failslow`` - the ``middleware`` ceiling names what PR 16 removed
  (rule 14): a stage that ranks the nodes it is handed from scratch, or a
  frame back between the coordinator and ``NodeRttTracker.observe``, puts it
  back above 29.53 (28.95 measured, 29.92 while a stage's
  ``on_replica_response`` hook fed the tracker, 32.88 while
  ``NodeRttTracker.ranked`` filtered the generation's ranking even when
  handed every sampled node).  The
  ``external`` ceiling is rule 2's percentile rule (3.88 measured, 6.23
  while every monitoring pull went through ``np.percentile``'s Python
  wrapper, ``_quantile`` and ``_lerp`` and their helpers): a percentile
  back through ``np.percentile`` puts it above 3.96.  Rule 11's one-frame
  arm and tick took ``reserve_sequence``, ``schedule``, ``push``,
  ``push_reserved`` and the tick's ``Event`` out of ``simulation.engine``
  (32.63 measured, 36.31 before; a kernel frame back under the wheel puts
  it above 33.29); the ``heappush`` and ``len`` of the tick's push and of
  each promotion are now counted in ``simulation.timers`` (6.14, was 5.14),
  which has no ceiling.  With them ``trace.calls_per_op`` fell from 186.54
  to 178.71.
* ``tenants_admission`` - the admission stack over 200 tenants, the one stack
  that takes the tenant pick and the token buckets with the default read path.
* Every ``simulation.engine`` ceiling is rule 18 (31.92 / 42.82 / 36.31 /
  27.34 measured, 38.31 / 51.92 / 42.72 / 32.86 when every hop built an
  ``Event``): an ``Event`` allocated again for a hop nobody cancels - a
  delivery, a service completion or an arrival going back through
  ``schedule_in`` instead of ``post_in`` - puts it back above its ceiling.
  The ``middleware`` ceilings of
  ``ycsb_b_default`` (7.83 measured, 9.74 before; 6.83 under rule 21) and
  ``tenants_admission`` (9.25, 10.86) are rule 18's other half: an ndarray
  back in the replica pick.
* The ``cancelled_skipped_per_op`` and ``peak_pending`` ceilings are rule 19
  (0.0099 / 0.0094 / 0.0045 cancelled pops and 25 / 33 / 27 peak heap
  entries measured on ``ycsb_b_default`` / ``autoscale_diurnal`` /
  ``tenants_admission``; 1.0027 / 1.0018 / 0.8465 and 160 / 204 / 290 while
  every operation timeout was a heap push): a timeout armed through
  ``schedule_in`` again, instead of ``deadline_in``, puts both back above
  their ceilings.  The deadline queue trades counted calls for counted
  calls, so the ``simulation.engine`` ceilings did not move: per operation a
  ``dict.get`` and a ``deque.append`` replace the ``heappush`` and ``len``
  of the push, and a ``deque.popleft`` per dropped deadline replaces the
  corpse's ``heappop``; what is left is about one FIFO turnover per timeout
  period (31.97 / 42.87 / 27.36 measured, +0.02 to +0.05;
  ``hedged_failslow``, whose timeouts go through the wheel, still 36.31).
* The ``trace.calls_per_op`` ceilings of ``ycsb_b_default``,
  ``autoscale_diurnal`` and ``hedged_failslow`` are rule 20's trade (157.44 /
  224.80 / 195.36 measured, 152.21 / 219.56 / 190.11 before; each ceiling is
  the measurement plus 2%): a jittered message and a service draw each cost
  one counted ``math.exp`` where they cost one ``Generator.lognormal``, a
  compiled method the profiler does not count, and the chunked normal that
  feeds it is ``chain.__next__``, which it does not count either.  What the
  layers' time did: ``simulation.network``'s self share fell on every
  workload (9.2% -> 7.9% on ``ycsb_b_default``).  ``tenants_admission``
  took the same rise and lost 3.81 generator frames per operation in
  ``workload`` (the chunked tenant pick and the four open-loop draws, which
  no longer resume a generator), so its ceiling did not move.  The
  ``simulation.resources`` ceiling of ``autoscale_diurnal`` is rule 4's exact
  backlog sum (19.44 measured, 22.29 while ``estimated_wait`` summed a
  generator): a Python frame per queued request back in it puts it above
  19.8.
* Rule 21 (one record per request, a tuple per service request, a fact
  the hop holds read as data) lowered the ceilings of the layers it shrank
  to the measurement plus 2%.  ``external`` on ``ycsb_b_default``
  (6.54 measured, 8.65 before): a second per-request record beside
  ``RequestContext`` (``_InFlight`` was 1.00 generated ``__init__`` per
  operation) or a ``ServiceRequest`` back in the server's queue (1.11) puts
  it above 6.67.  ``cluster.replica`` (9.62 and 15.34 measured, 11.83 and
  19.35 before): a frame back between a node and its memory-pressure
  multiplier (two per replica operation) puts it above 9.82 / 15.64.
  ``simulation.resources`` on ``autoscale_diurnal`` (13.10 measured, 19.44
  before): an ``effective_rate`` derived per read again, or work queued as a
  record that is appended and popped even when the server is idle, puts it
  above 13.36.  ``middleware`` on ``ycsb_b_default`` and ``hedged_failslow``
  (6.83 and 32.88 measured, 7.83 and 33.88 before): the coordinator calling
  the no-op ``on_request`` again on a stack where no stage implements it
  puts them above 6.97 / 33.54; ``tenants_admission``'s stage implements
  it, so its 9.25 did not move.  The ``trace.calls_per_op`` ceilings fell
  with them (148.70 / 210.43 / 186.61 / 143.92 measured on
  ``ycsb_b_default`` / ``autoscale_diurnal`` / ``hedged_failslow`` /
  ``tenants_admission``, 157.44 / 224.80 / 195.36 / 150.19 before).

* Gossip at its real price (PERFORMANCE.md) lowered the ``trace.calls_per_op``
  ceilings to the measurement plus 2% (143.45 / 205.15 / 174.22 / 139.77
  measured on ``ycsb_b_default`` / ``autoscale_diurnal`` /
  ``hedged_failslow`` / ``tenants_admission``; 147.02 / 208.92 / 177.76 /
  142.56 before): a request's liveness filter is one frame into
  ``cluster/membership.py``, where it was one ``view_of`` and one
  ``is_alive`` frame per replica, and a gossip round's peer and jitter are
  scalar draws, where ``rng.choice`` ran numpy's ``np.prod`` wrapper
  (``external``).  The ``cluster.placement`` ceilings hold the filter
  (7.20 and 11.10 measured, 10.39 and 14.40 before): a frame per replica
  back in it puts ``ycsb_b_default`` above 7.34 and ``autoscale_diurnal``
  above 11.32, which also still catches rule 17's ring walk per key.
* The coordinator feeding its own RTT tracker (PERFORMANCE.md rule 14)
  lowered ``hedged_failslow``'s ``middleware`` and ``trace.calls_per_op``
  ceilings to the measurement plus 2% (28.95 and 173.25 measured, 29.92 and
  174.22 before): one ``observe`` per replica read response is called
  straight from the coordinator, where the stage's ``on_replica_response``
  was a frame around it.  No other workload's counts moved.
* One tally per client outcome (PERFORMANCE.md rule 15) lowered every
  ``trace.calls_per_op`` ceiling to the measurement plus 2% (140.43 / 202.14
  / 170.24 / 136.77 measured on ``ycsb_b_default`` / ``autoscale_diurnal`` /
  ``hedged_failslow`` / ``tenants_admission``; 143.45 / 205.15 / 173.25 /
  139.77 before): staleness, compensation and the monitoring share are read
  from the workload's counts at report time, where three listeners each took
  one frame per completed operation - one in ``consistency``, one in
  ``core`` (the cost models) and one in ``monitoring``, 1.00 each.  The
  ``consistency`` and ``core`` ceilings of ``ycsb_b_default`` hold it (1.13
  and 0.065 measured, 2.14 and 1.07 before): a listener that recounts
  outcomes back in either layer puts it above 1.15 / 0.066.  Events,
  schedules and messages per operation did not move.
* The control loop reading the clients' tally (PERFORMANCE.md rule 15)
  lowered every ``trace.calls_per_op`` ceiling to the measurement plus 2%
  (134.53 / 197.13 / 164.28 / 130.46 measured, 140.42 / 202.12 / 170.22 /
  136.76 before): the metrics collector and the RTT model read the
  workload's counts and latency series, where each took one frame per
  completed operation and kept its own latency window, and the tenant
  rollup reads its per-tenant counts.  The ``monitoring`` ceiling of
  ``ycsb_b_default`` holds it (2.15 measured, 8.04 before): a listener that
  recounts completions in ``monitoring/`` puts it back above 2.19.  Events,
  schedules and messages per operation did not move.
* Deleting what no run reads lowered the ceilings whose counts fell to the
  measurement plus 2%: ``hedged_failslow``'s ``middleware`` and
  ``trace.calls_per_op`` (27.80 and 163.12 measured, 28.95 and 164.28
  before), as ``NodeRttTracker.observe`` no longer counts samples per node
  and ``ranked`` counts the slow nodes in its own frame; the
  ``trace.calls_per_op`` of ``autoscale_diurnal`` and ``tenants_admission``
  (197.13 and 130.45, a few thousandths lower: no getattr per latency
  objective, and no per-tier p99 per control round on a tenant run); and
  ``core`` on ``ycsb_b_default`` (0.0518, 0.0524 before; 0.065 when last
  set).  Events, schedules, messages and timer arms did not move.
* A tenant's read latency stored once (PERFORMANCE.md rule 15) lowered
  ``tenants_admission``'s ``trace.calls_per_op`` to the measurement plus 2%
  (126.23 measured, 130.45 before) and gave it a ``monitoring`` ceiling
  (1.93 measured, 6.16 before; 2.15 on ``ycsb_b_default``, whose only
  listener is the piggyback monitor): the tenant rollup slices the
  workload's read series by its tenant column at report time, where it took
  one completion frame per operation and fed a per-tier window.  A listener
  that keeps tier or tenant samples back in ``monitoring/`` puts it above
  1.97.  The prober's one probe series adds 0.0015 to ``simulation.misc``.
  Events, schedules and messages per operation did not move.

A counted call that replaces uncounted work is not a regression in itself
(the profiler counts ``dict.get`` and ``tolist`` but not a loop iteration, a
subscript or ``int()``): a PR that raises a ceiling for one says, where it
raises it, which counted call replaced which work and what the layer's time
did.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: workload -> (ceilings compared with <=, counts that must match to 4 places)
GATES = {
    "ycsb_b_default": (
        {
            # 134.53 measured + 2%: no listener recounts what clients saw.
            "trace.calls_per_op": 137.2,
            "simulation.engine.calls_per_op": 32.55,
            "simulation.misc.calls_per_op": 3.0,
            "cluster.replica.calls_per_op": 9.82,
            "external.calls_per_op": 6.67,
            "middleware.calls_per_op": 6.97,
            "cluster.placement.calls_per_op": 7.34,
            # 1.13 measured + 2%: the window tracker only, no staleness listener.
            "consistency.calls_per_op": 1.15,
            # 0.0518 measured + 2%: the cost models price counts, they do not
            # listen, and a latency objective reads its field without getattr.
            "core.calls_per_op": 0.0529,
            # 2.15 measured + 2%: the collector and the RTT model read the
            # workload's tally; a listener that recounts completions in
            # monitoring/ puts it back above this.
            "monitoring.calls_per_op": 2.19,
            "simulation.engine.cancelled_skipped_per_op": 0.02,
            "simulation.engine.peak_pending": 40,
        },
        {
            "simulation.engine.events_per_op": 6.428,
            "simulation.engine.scheduled_per_op": 7.4322,
            "simulation.network.messages_per_op": 4.2792,
        },
    ),
    "autoscale_diurnal": (
        {
            # 197.13 measured + 2%: no listener recounts what clients saw.
            "trace.calls_per_op": 201.08,
            "simulation.engine.calls_per_op": 43.65,
            "simulation.resources.calls_per_op": 13.36,
            "consistency.calls_per_op": 13.45,
            "cluster.replica.calls_per_op": 15.64,
            "cluster.placement.calls_per_op": 11.32,
            "simulation.engine.cancelled_skipped_per_op": 0.02,
            "simulation.engine.peak_pending": 40,
        },
        {
            "simulation.engine.events_per_op": 9.1454,
            "simulation.engine.scheduled_per_op": 10.1494,
            "simulation.network.messages_per_op": 6.0906,
        },
    ),
    "hedged_failslow": (
        {
            # 163.12 measured + 2%: no listener recounts what clients saw,
            # and the RTT tracker keeps no per-node sample count.
            "trace.calls_per_op": 166.39,
            "simulation.engine.calls_per_op": 33.29,
            # 27.80 measured + 2%: no stage hook frame around ``observe``, no
            # sample count in it, and no frame to count the slow nodes.
            "middleware.calls_per_op": 28.36,
            "external.calls_per_op": 3.96,
        },
        {
            "simulation.engine.events_per_op": 6.8487,
            "simulation.engine.scheduled_per_op": 7.5095,
            "simulation.network.messages_per_op": 4.2956,
            "simulation.timers.armed_per_op": 1.9573,
        },
    ),
    "tenants_admission": (
        {
            # 126.23 measured + 2%: no listener recounts what clients saw or
            # keeps a tier's reads, and the controller takes no per-tier p99
            # per round.
            "trace.calls_per_op": 128.75,
            "simulation.engine.calls_per_op": 27.85,
            "middleware.calls_per_op": 9.43,
            # 1.93 measured + 2%: the tenant rollup slices the workload's
            # read series; a completion listener in monitoring/ beside the
            # piggyback monitor puts it back above this.
            "monitoring.calls_per_op": 1.97,
            "simulation.engine.cancelled_skipped_per_op": 0.02,
            "simulation.engine.peak_pending": 40,
        },
        {
            "simulation.engine.events_per_op": 5.5401,
            "simulation.engine.scheduled_per_op": 6.3885,
            "simulation.network.messages_per_op": 3.5873,
        },
    ),
}


def main() -> None:
    for workload, (ceilings, exact) in GATES.items():
        command = [sys.executable, "benchmarks/ledger/run.py", "--workload", workload]
        command += ["--seed", "42", "--seconds", "8", "--trace", "1"]
        output = subprocess.run(
            command, check=True, capture_output=True, text=True, cwd=ROOT
        ).stdout
        document = json.loads(output.strip().splitlines()[-1])
        assert document["correct"] and document["failed"] == 0, document
        metrics = {name: entry["value"] for name, entry in document["metrics"].items()}
        for name, ceiling in ceilings.items():
            print(f"{workload}: {name} = {metrics[name]:.3f} (ceiling {ceiling:g})")
            assert metrics[name] <= ceiling, (workload, name, metrics[name], ceiling)
        for name, expected in exact.items():
            print(f"{workload}: {name} = {metrics[name]:.4f} (must be {expected})")
            assert round(metrics[name], 4) == expected, (workload, name, metrics[name])


if __name__ == "__main__":
    main()
