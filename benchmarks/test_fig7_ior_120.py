"""Figure 7: IOR interleaved read/write at 120 cores, memory swept 2-128 MB.

Paper setup: 120 processes, 32 MB of I/O data per process, interleaved
accesses to a shared Lustre file; aggregation memory swept. Paper
results: write improvements of +40.3%..+121.7% (avg +81.2%, best at
16 MB), read improvements of +64.6%..+97.4% (avg +82.4%).

Expected reproduced *shape*: the baseline's bandwidth falls steeply as
the buffer shrinks (more rounds, OST-aligned collisions, unamortized
request overhead) while MC-CIO stays comparatively flat by exploiting
the memory-rich nodes of the Normal(mem, 50 MB) distribution; the gap
is largest at small memory. Absolute MB/s are simulator-calibrated.
"""

from __future__ import annotations

import pytest
from harness import memory_sweep, publish

from repro import IORWorkload, mib, testbed_640


@pytest.fixture(scope="module")
def machine():
    return testbed_640()


@pytest.fixture(scope="module")
def workload():
    # 120 ranks x 32 MiB, 2 MiB transfers, interleaved (IOR default).
    return IORWorkload(120, block_size=mib(32), transfer_size=mib(2))


@pytest.mark.parametrize("kind", ["write", "read"])
def test_fig7_ior_120(machine, workload, kind):
    fig = memory_sweep(
        machine, workload, kind=kind, title="Figure 7: IOR, 120 processes"
    )
    publish(f"fig7_ior_120_{kind}", fig.render())

    # Shape assertions (who wins, where, and by roughly what factor):
    # 1. MC-CIO wins clearly at small memory...
    small = fig.points[0]
    assert small.improvement > 0.4, small
    # 2. ...and never loses badly anywhere.
    assert all(p.improvement > -0.25 for p in fig.points)
    # 3. The baseline degrades as memory shrinks (>= 2x from 128 MB to 2 MB).
    assert fig.points[-1].baseline_bw > 2.0 * fig.points[0].baseline_bw
    # 4. MC-CIO is far flatter across the sweep than the baseline.
    mc_span = fig.points[-1].mc_bw / fig.points[0].mc_bw
    base_span = fig.points[-1].baseline_bw / fig.points[0].baseline_bw
    assert mc_span < base_span
    # 5. Net: a substantial average improvement (paper: ~+81%).
    assert fig.average_improvement > 0.30
