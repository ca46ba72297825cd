"""A ratchet on the size of ``src/repro/``.

Counts the lines of ``src/repro/**/*.py`` that are neither blank nor a
``#`` comment and holds them under a recorded ceiling.  The ceiling moves
down only: lower it to the new count on every change that removes code.  A
change that must raise it writes the reason beside the number, as
``scripts/ledger_gates.py`` does for its ceilings.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Lower it with every change that removes code.
#: Raised from 14,194 by 31: ``exact_percentiles`` writes numpy's linear
#: percentile rule out over one sort instead of calling ``np.percentile``
#: (+30 with ``percentile_fractions``, the range check it now shares with the
#: sketch), and ``NodeRttTracker`` counts its sampled nodes so that
#: ``ranked`` hands its ranking out whole (+9).  Both take Python frames off
#: the hedged read path (PERFORMANCE.md rules 2 and 14).  The wheel's
#: written-out arm and tick came to -8 with ``reserve_sequence`` and
#: ``push_reserved`` deleted.
#: Raised from 13,867 by 25: ``run_sharded``'s lanes are forked
#: ``multiprocessing`` processes with one pipe each (``_run_in_lanes``)
#: instead of one spawn-started single-worker pool each.  The runner reads
#: its own pipes, turns EOF into the dead lane's exit code, sends an
#: exception that cannot be pickled as its type name and message, and
#: refuses a platform without ``fork``; a run forks one lane per usable core.
#: Raised from 13,800 by 5: ``MembershipService.alive_among`` answers a
#: request's whole liveness filter in one frame, with a slow path that asks
#: ``is_alive`` per node once one is suspected (``membership.py`` +8, with
#: ``view_of``, the fan-out loop and ``observe``'s own body gone), where the
#: coordinator made one frame per replica (``coordinator.py`` -10);
#: ``SimulationConfig`` refuses a bare string as its stack (+6) and a
#: periodic task keeps its jitter stream (+1) (PERFORMANCE.md, "Gossip at
#: its real price").
CEILING = 13_050


def _code_lines() -> int:
    count = 0
    for path in SRC.rglob("*.py"):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                count += 1
    return count


def test_src_stays_under_its_line_ceiling():
    count = _code_lines()
    assert count <= CEILING, (
        f"src/repro/ has {count} code lines against a ceiling of {CEILING}: "
        "delete what the change made unnecessary, or raise CEILING with the "
        "reason written beside it"
    )
    assert count == CEILING, (
        f"src/repro/ is down to {count} code lines: lower CEILING from "
        f"{CEILING} to {count} (it only moves down)"
    )
