"""Pinned simulated outputs of the round engine, bit for bit.

The executor's results are sums of float charges over rounds, domains,
resources and OSTs, so a change of summation order shows up in the last
bits of ``elapsed`` long before any tolerance-based test notices. Each
spec below pins ``repr(elapsed)``, the round count, the intra/inter
shuffle bytes, and a sha256 over every ``RoundRecord.to_dict()`` (JSON
in the record's own key order, so the resource-map key order is pinned
too) and every fault and lever-decision span. ``PINNED_TRANSFER`` pins
the ``transfer`` trace event of every spec: ``repr`` of its
``resource_bound`` and ``critical_chain``, and a sha256 over its
``resource_bytes`` (keys in first-charge order, with their values). The
values were recorded with the per-request object engine that preceded
the columnar one (the byte-accurate spec and the transfer events with
the per-``Flow`` charging that preceded columnar charging); regenerate
them only for an intended change of simulated results::

    PYTHONPATH=src python tests/io/test_pinned_outputs.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import Experiment, FaultEvent, FaultSpec, kib, mib
from repro.cluster import RemotePoolSpec, scaled_testbed
from repro.core import MemoryConsciousConfig
from repro.io import CollectiveHints

_IOR = {"block_size": mib(4), "transfer_size": kib(512)}
_CFG = MemoryConsciousConfig(msg_ind=mib(1), msg_group=mib(4), nah=2, mem_min=kib(128))
# A pool small enough that a full-pressure spike cannot always borrow:
# the run below remerges, borrows, and evicts after a pool saturation.
_POOL = RemotePoolSpec(capacity=mib(1), link_bandwidth=1e12, latency_s=1e-7, n_links=2)
_EVENTS = (
    FaultEvent(kind="mem_pressure", time=5e-3, target=0, fraction=1.0),
    FaultEvent(kind="ost_degrade", time=6e-3, target=1, factor=3.0, duration=4e-3),
    FaultEvent(kind="mem_pressure", time=1e-2, target=1, fraction=1.0),
    FaultEvent(kind="pool_saturate", time=1.5e-2, fraction=0.5),
    FaultEvent(kind="agg_stall", time=1.8e-2, target=3, factor=2.0, duration=3e-3),
    FaultEvent(kind="mem_pressure", time=2e-2, target=2, fraction=1.0),
)

SPECS: dict[str, Experiment] = {
    "two-phase-write": Experiment(
        machine="testbed-4", strategy="two-phase", n_procs=8, procs_per_node=2,
        workload_params=_IOR, cb_buffer=kib(512), seed=3,
    ),
    "two-phase-read": Experiment(
        machine="testbed-4", strategy="two-phase", n_procs=8, procs_per_node=2,
        workload_params=_IOR, cb_buffer=kib(512), seed=3, kind="read",
    ),
    "mc-write-strided": Experiment(
        machine="testbed-4", strategy="mc", n_procs=16, procs_per_node=4,
        workload="nested-strided", cb_buffer=kib(256),
        memory_variance_mean=kib(512), memory_variance_std=kib(64),
        config=_CFG, seed=5,
    ),
    # Eight domains on four aggregator ranks: one rank owns two domains.
    "two-layer-mc-read": Experiment(
        machine="testbed-4", strategy="mc", n_procs=8, procs_per_node=2,
        workload_params=_IOR, kind="read",
        hints=CollectiveHints(cb_buffer_size=kib(512), two_layer_shuffle=True),
        memory_variance_mean=kib(512), memory_variance_std=kib(64),
        config=_CFG, seed=3,
    ),
    "two-layer-mc-write": Experiment(
        machine="testbed-4", strategy="mc", n_procs=16, procs_per_node=4,
        workload_params=_IOR,
        hints=CollectiveHints(cb_buffer_size=kib(512), two_layer_shuffle=True),
        memory_variance_mean=kib(512), memory_variance_std=kib(64),
        config=_CFG, seed=3,
    ),
    # The byte-accurate data path: every piece carries its extents.
    "mc-write-strided-tracked": Experiment(
        machine="testbed-4", strategy="mc", n_procs=16, procs_per_node=4,
        workload="nested-strided", cb_buffer=kib(256),
        memory_variance_mean=kib(512), memory_variance_std=kib(64),
        config=_CFG, seed=5, track_data=True,
    ),
    "sieving-write": Experiment(
        machine="testbed-4", strategy="sieving", n_procs=8, procs_per_node=2,
        workload="nested-strided", seed=3,
    ),
    "faulted-mc-pool-write": Experiment(
        machine=scaled_testbed(4).with_pool(_POOL), strategy="mc", n_procs=8,
        procs_per_node=2, workload_params=_IOR, cb_buffer=kib(512),
        memory_variance_mean=kib(512), memory_variance_std=kib(64),
        config=_CFG, seed=3, faults=FaultSpec(events=_EVENTS),
    ),
    # Two-layer merging across a shared aggregator's domains, under
    # derated (non-integral) resource charges.
    "faulted-two-layer-mc-pool-write": Experiment(
        machine=scaled_testbed(4).with_pool(_POOL), strategy="mc", n_procs=8,
        procs_per_node=2, workload_params=_IOR,
        hints=CollectiveHints(cb_buffer_size=kib(512), two_layer_shuffle=True),
        memory_variance_mean=kib(512), memory_variance_std=kib(64),
        config=_CFG, seed=3, faults=FaultSpec(events=_EVENTS),
    ),
}

PINNED: dict[str, tuple] = {
    "faulted-mc-pool-write": (
        "0.37537280975140946", 89, 15057924, 18496508,
        "d5f9da83453dc2fa22ca219cc4ebc6b264555b893dc7e9eaaafa3132f68b66f8",
    ),
    "faulted-two-layer-mc-pool-write": (
        "0.3753624097514095", 89, 15057924, 18496508,
        "9c6a8c8a397f162420990f9d34bbca0ed59a832cd7c39acd37edb94db77b9cf1",
    ),
    "mc-write-strided": (
        "0.07294833943056268", 10, 4194304, 12582912,
        "7d54a3b67af0fa6d26ca5e9b37be798b43fb75612a79e25043872f995715e222",
    ),
    "mc-write-strided-tracked": (
        "0.07294833943056268", 10, 4194304, 12582912,
        "7d54a3b67af0fa6d26ca5e9b37be798b43fb75612a79e25043872f995715e222",
    ),
    "sieving-write": (
        "0.7318353999999997", 1, 0, 0,
        "79099cd2e6ed40c5a13a54f7354882f3b6a4bdc2246eecc07459e1c6679eddcb",
    ),
    "two-layer-mc-read": (
        "0.14750079517981213", 18, 31457280, 2097152,
        "c8d2b0681eed291e4a1fb1c562304932fdde8552062606c0a06db7c9ba1cb860",
    ),
    "two-layer-mc-write": (
        "0.31986216668912576", 35, 59768832, 7340032,
        "8fc0819064ed3c881e4fa43a3d419dea880213d99cfd319a1f40d03ae141f2cc",
    ),
    "two-phase-read": (
        "0.38357747930812847", 16, 8388608, 25165824,
        "fa4a9da2fdff007b2d91bb66951ea9a6a5ff6b199f949191a9c20d153d3396fc",
    ),
    "two-phase-write": (
        "0.46357747930812854", 16, 8388608, 25165824,
        "a5b8cdca093b5f58628091c4a4ec6b97ceea04aa1264cc9bc88c54c16e08f673",
    ),
}


PINNED_TRANSFER: dict[str, tuple | None] = {
    "faulted-mc-pool-write": (
        "0.13520000000000001", "0.3740199347451629",
        "1052e0449f9778570ba851623a87938db98492de497f6a673882dbaef8894487",
    ),
    "faulted-two-layer-mc-pool-write": (
        "0.13520000000000001", "0.3740199347451629",
        "c157890f39395c383303a34c5fa63d36ede653e8abfd6d50d0facc4ef92da929",
    ),
    "mc-write-strided": (
        "0.0668", "0.07284461788992089",
        "b2031b6f44f2d9187d1fe720e76e9e5407fba05ad5093101d4e3a35f9d06afd2",
    ),
    "mc-write-strided-tracked": (
        "0.0668", "0.07284461788992089",
        "b2031b6f44f2d9187d1fe720e76e9e5407fba05ad5093101d4e3a35f9d06afd2",
    ),
    "sieving-write": None,
    "two-layer-mc-read": (
        "0.11840000000000002", "0.1473877517941793",
        "4472099ab1dd4deb8064e1cec6166a6d45d30a5f1ec19c08eeaeb19a42141848",
    ),
    "two-layer-mc-write": (
        "0.2712", "0.319670845148484",
        "eb53b1c5218c77d1c64530ab28d7fa740ff3d002773a7f45e93bc79bf07085fe",
    ),
    "two-phase-read": (
        "0.0928", "0.3835013750000001",
        "a468407be6bb0731850575c73666d114e7237896fcac9c4e4a6ff0091df235de",
    ),
    "two-phase-write": (
        "0.11280000000000001", "0.46350137500000016",
        "a41d1422986dd0266566ab902adc4e4887724dd5e9cc980a7b04debc800962e3",
    ),
}


def observe(exp: Experiment) -> tuple:
    """(repr(elapsed), n_rounds, intra, inter, sha256 of rounds and spans)."""
    result = exp.run()
    digest = hashlib.sha256()
    telemetry = result.telemetry
    for span in (*telemetry.rounds, *telemetry.faults, *telemetry.borrows):
        digest.update(json.dumps(span.to_dict()).encode())
    return (
        repr(result.elapsed),
        result.n_rounds,
        result.shuffle_intra_bytes,
        result.shuffle_inter_bytes,
        digest.hexdigest(),
    )


def observe_transfer(exp: Experiment) -> tuple | None:
    """(repr(resource_bound), repr(critical_chain), sha256 of resource_bytes).

    ``None`` for a strategy that runs no rounds (no transfer event).
    """
    transfers = exp.run().trace.phases("transfer")
    if not transfers:
        return None
    (transfer,) = transfers
    pairs = [[str(key), value] for key, value in transfer.resource_bytes.items()]
    return (
        repr(transfer.meta["resource_bound"]),
        repr(transfer.meta["critical_chain"]),
        hashlib.sha256(json.dumps(pairs).encode()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_simulated_outputs_are_pinned(name):
    assert observe(SPECS[name]) == PINNED[name]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_transfer_event_is_pinned(name):
    assert observe_transfer(SPECS[name]) == PINNED_TRANSFER[name]


@pytest.mark.parametrize("name", ["faulted-mc-pool-write", "faulted-two-layer-mc-pool-write"])
def test_faulted_specs_exercise_remerge_borrow_and_evict(name):
    result = SPECS[name].run()
    counters = result.telemetry.counters
    for lever in ("remerge", "borrow", "evict"):
        assert counters.get(f"recoveries_{lever}", 0) >= 1, lever


if __name__ == "__main__":
    for name in sorted(SPECS):
        print(f"    {name!r}: {observe(SPECS[name])!r},")
    print()
    for name in sorted(SPECS):
        print(f"    {name!r}: {observe_transfer(SPECS[name])!r},")
