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
CEILING = 14_062


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
