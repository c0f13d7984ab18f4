"""Figure 8: IOR at 1080 cores, aggregation memory swept 2-128 MB.

Paper setup: 1080 processes (90 nodes), interleaved IOR on a shared
file; baseline write bandwidth fell 1631.91 -> 396.36 MB/s and read
2047.05 -> 861.62 MB/s as the buffer shrank 128 MB -> 2 MB; MC-CIO
improved writes by +24.3% and reads by +57.8% on average.

Shape expectations here: the same ~4x baseline write degradation across
the sweep, ~2.4x for reads, and consistent MC-CIO gains concentrated at
small memory. One seed (the paper reports single runs) keeps the
simulation inside a couple of minutes.
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
    return IORWorkload(1080, block_size=mib(32), transfer_size=mib(2))


@pytest.mark.parametrize("kind", ["write", "read"])
def test_fig8_ior_1080(machine, workload, kind):
    fig = memory_sweep(
        machine,
        workload,
        kind=kind,
        title="Figure 8: IOR, 1080 processes",
        seeds=(7,),
    )
    publish(f"fig8_ior_1080_{kind}", fig.render())

    # Baseline degrades substantially from 128 MB to 2 MB (paper: ~4x
    # write, ~2.4x read).
    degradation = fig.points[-1].baseline_bw / fig.points[0].baseline_bw
    assert degradation > 2.0
    # MC-CIO improves on average (paper: +24.3% W / +57.8% R) and is
    # strongest at small memory.
    assert fig.average_improvement > 0.15
    assert fig.points[0].improvement > fig.points[-1].improvement - 0.05
    assert all(p.improvement > -0.25 for p in fig.points)
