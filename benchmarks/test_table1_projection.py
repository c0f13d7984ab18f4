"""Table 1: potential exascale computer design vs the 2010 design.

Regenerates the projection table the paper reproduces from Vetter et
al., including the factor-change column, and the memory-per-core
argument (fm / (fs * fn) -> megabytes per core) that motivates
memory-conscious collective I/O.
"""

from __future__ import annotations

from harness import publish

from repro import memory_per_core_factor, projection_table, render_table
from repro.analysis import DESIGN_2010, DESIGN_2018


def _render() -> str:
    rows = []
    for row in projection_table():
        rows.append(
            (
                row.label,
                f"{row.value_2010:g}",
                f"{row.value_2018:g}",
                f"{row.factor:.0f}",
                f"{row.paper_factor:g}",
            )
        )
    table = render_table(
        ["metric", "2010", "2018", "factor", "paper"],
        rows,
        title="Table 1: potential exascale design vs 2010 (after Vetter et al.)",
    )
    factor = memory_per_core_factor()
    lines = [
        table,
        "",
        f"memory-per-core factor fm/(fs*fn) = {factor:.5f} "
        f"(shrinks ~{1 / factor:.0f}x)",
        f"2010: {DESIGN_2010.memory_per_core_mb():.0f} MB/core -> "
        f"2018: {DESIGN_2018.memory_per_core_mb():.1f} MB/core",
    ]
    return "\n".join(lines) + "\n"


def test_table1_projection():
    text = _render()
    publish("table1_projection", text)
    # Reproduction checks: every factor matches the published column.
    for row in projection_table():
        assert row.matches_paper, row.label
    # The paper's headline: memory per core drops to megabytes.
    assert DESIGN_2018.memory_per_core_mb() < 20.0
