"""The unified experiment API: one way to wire machine x workload x strategy.

Before this module existed, three different callers rebuilt the same
wiring by hand — ``cli.py``'s private helpers, ``benchmarks/harness.py``'s
``run_point``, and each example. :class:`Experiment` replaces all of
them: a frozen, picklable *specification* of one collective-I/O run
(machine, workload, strategy, hints, process layout, seed, memory
variance) that knows how to

* resolve symbolic specs (``machine="testbed-8"``, ``workload="ior"``,
  ``strategy="mc"``) into the concrete model objects,
* build its :class:`~repro.io.context.IOContext` (variance applied,
  deterministically seeded),
* ``.plan()`` the memory-conscious strategy without executing, and
* ``.run()`` the whole operation to a
  :class:`~repro.io.result.CollectiveResult`,

and that canonicalizes itself to a JSON-safe ``spec()`` dict whose
SHA-256 (:meth:`Experiment.spec_hash`) keys the campaign plan cache.

Example::

    from repro import Experiment

    exp = Experiment(machine="testbed-8", workload="ior", strategy="mc",
                     n_procs=16, procs_per_node=2, cb_buffer=4 << 20)
    result = exp.run()
    faster = exp.replace(cb_buffer=32 << 20).run()
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from .cluster import (
    MachineModel,
    exascale_2018,
    petascale_2010,
    scaled_testbed,
    testbed_640,
)
from .core import (
    CollectivePlan,
    MemoryConsciousCollectiveIO,
    MemoryConsciousConfig,
    auto_tune,
)
from .core.plans import spec_hash as _hash_spec
from .faults import FaultRuntime, FaultSpec
from .io import (
    CollectiveHints,
    CollectiveResult,
    DataSievingIO,
    IndependentIO,
    IOContext,
    IOStrategy,
    TwoPhaseCollectiveIO,
    make_context,
)
from .analysis.selection import (
    AUTO_CANDIDATES,
    FAULT_CAPABLE_CANDIDATES,
    StrategyChoice,
    select_strategy,
)
from .mpi.requests import AccessRequest, flatten_requests
from .util import kib, mib
from .util.errors import ConfigurationError
from .workloads import (
    CollPerfWorkload,
    FilePerTaskWorkload,
    HotSpotWorkload,
    IORWorkload,
    NestedStridedWorkload,
    Workload,
)

__all__ = [
    "Experiment",
    "MACHINE_PRESETS",
    "STRATEGY_CHOICES",
    "STRATEGY_NAMES",
    "WORKLOAD_BUILDERS",
    "WORKLOAD_NAMES",
    "resolve_machine",
    "resolve_strategy",
    "resolve_workload",
]

MACHINE_PRESETS = {
    "testbed": testbed_640,
    "petascale-2010": petascale_2010,
    "exascale-2018": exascale_2018,
}


def _build_ior(n_procs: int, params: Mapping[str, Any]) -> Workload:
    return IORWorkload(
        n_procs,
        block_size=params.get("block_size", mib(32)),
        transfer_size=params.get("transfer_size", mib(2)),
    )


def _build_ior_segmented(n_procs: int, params: Mapping[str, Any]) -> Workload:
    return IORWorkload(
        n_procs,
        block_size=params.get("block_size", mib(32)),
        segmented=True,
    )


def _build_coll_perf(n_procs: int, params: Mapping[str, Any]) -> Workload:
    edge = params.get("array_edge", 240)
    return CollPerfWorkload(n_procs, (edge, edge, edge))


def _build_file_per_task(n_procs: int, params: Mapping[str, Any]) -> Workload:
    return FilePerTaskWorkload(
        n_procs,
        task_bytes=params.get("task_bytes", kib(256)),
        tasks_per_rank=params.get("tasks_per_rank", 4),
        layout=params.get("layout", "interleaved"),
    )


def _build_nested_strided(n_procs: int, params: Mapping[str, Any]) -> Workload:
    return NestedStridedWorkload(
        n_procs,
        block=params.get("block", kib(64)),
        inner_count=params.get("inner_count", 4),
        outer_count=params.get("outer_count", 4),
        hole_factor=params.get("hole_factor", 2),
    )


def _build_hotspot(n_procs: int, params: Mapping[str, Any]) -> Workload:
    return HotSpotWorkload(
        n_procs,
        total_bytes=params.get("total_bytes", n_procs * mib(1)),
        hot_fraction=params.get("hot_fraction", 0.6),
        hot_ranks=params.get("hot_ranks", 1),
    )


#: named workload registry: spec string -> builder(n_procs, params).
#: The CLI choices, the serve allowlist, and the parity test matrix all
#: iterate this, so registering here is the single step that plugs a
#: new generator into every surface.
WORKLOAD_BUILDERS: dict[str, Any] = {
    "ior": _build_ior,
    "ior-segmented": _build_ior_segmented,
    "coll_perf": _build_coll_perf,
    "file-per-task": _build_file_per_task,
    "nested-strided": _build_nested_strided,
    "hotspot": _build_hotspot,
}

WORKLOAD_NAMES = tuple(WORKLOAD_BUILDERS)
#: concrete executable strategies (what the spec hash records)
STRATEGY_NAMES = ("independent", "sieving", "two-phase", "mc")
#: everything a strategy spec string may say — the concrete strategies
#: plus cost-model-driven selection
STRATEGY_CHOICES = STRATEGY_NAMES + ("auto",)


def resolve_machine(spec: MachineModel | str) -> MachineModel:
    """Turn a machine spec into a model: preset name, ``testbed-<nodes>``,
    or an already-built :class:`MachineModel` (passed through)."""
    if isinstance(spec, MachineModel):
        return spec
    if spec.startswith("testbed-"):
        suffix = spec.split("-", 1)[1]
        try:
            return scaled_testbed(int(suffix))
        except ValueError:
            raise ConfigurationError(f"bad testbed node count {suffix!r}") from None
    try:
        return MACHINE_PRESETS[spec]()
    except KeyError:
        raise ConfigurationError(
            f"unknown machine {spec!r}; choose from "
            f"{sorted(MACHINE_PRESETS)} or 'testbed-<nodes>'"
        ) from None


def resolve_workload(
    spec: Workload | str,
    n_procs: int,
    params: Mapping[str, Any] | None = None,
) -> Workload:
    """Turn a workload spec into a generator.

    Named specs are looked up in :data:`WORKLOAD_BUILDERS` and take
    their parameters from ``params`` (defaults mirror the CLI: 32 MiB
    blocks, 2 MiB transfers, 240-edge arrays). Workload instances pass
    through untouched.
    """
    if isinstance(spec, Workload):
        return spec
    builder = WORKLOAD_BUILDERS.get(spec)
    if builder is None:
        raise ConfigurationError(
            f"unknown workload {spec!r}; choose from {WORKLOAD_NAMES} "
            f"or pass a Workload instance"
        )
    return builder(n_procs, dict(params or {}))


@lru_cache(maxsize=32)
def _auto_config(machine: MachineModel) -> MemoryConsciousConfig:
    """Calibrated MC config per machine (memoized — tuning sweeps cost)."""
    return auto_tune(machine).as_config()


def resolve_strategy(
    spec: IOStrategy | str,
    machine: MachineModel,
    config: MemoryConsciousConfig | None = None,
    *,
    choice: StrategyChoice | None = None,
) -> IOStrategy:
    """Turn a strategy spec into an executable strategy.

    ``"mc"`` uses ``config`` when given, else the machine's auto-tuned
    calibration (Nah/Msg_ind/Msg_group/Mem_min). ``"auto"`` needs the
    cost model's pick — pass the :class:`StrategyChoice` (from
    :meth:`Experiment.auto_choice` or
    :func:`repro.analysis.select_strategy`); without one the spec cannot
    be resolved here because selection depends on the workload.
    """
    if isinstance(spec, IOStrategy):
        return spec
    if spec == "auto":
        if choice is None:
            raise ConfigurationError(
                "strategy 'auto' needs a cost-model choice; use "
                "Experiment(strategy='auto', ...) or pass choice= from "
                "repro.analysis.select_strategy"
            )
        return resolve_strategy(choice.chosen, machine, config)
    if spec == "independent":
        return IndependentIO()
    if spec == "sieving":
        return DataSievingIO()
    if spec == "two-phase":
        return TwoPhaseCollectiveIO()
    if spec == "mc":
        return MemoryConsciousCollectiveIO(
            config if config is not None else _auto_config(machine)
        )
    raise ConfigurationError(
        f"unknown strategy {spec!r}; choose from {STRATEGY_CHOICES} "
        f"or pass an IOStrategy instance"
    )


def _workload_fingerprint(workload: Workload) -> dict:
    """Exact, JSON-safe identity of an access pattern.

    Hashes every rank's extent arrays, so *any* workload — named spec or
    hand-built instance — is identified by the bytes it touches rather
    than by how it was constructed.
    """
    digest = hashlib.sha256()
    for rank in range(workload.n_procs):
        extents = workload.extents_for_rank(rank)
        digest.update(rank.to_bytes(4, "little"))
        for offset, length in extents.to_pairs():
            digest.update(int(offset).to_bytes(8, "little"))
            digest.update(int(length).to_bytes(8, "little"))
    return {
        "name": workload.name,
        "n_procs": workload.n_procs,
        "extents_sha256": digest.hexdigest(),
    }


@dataclass(frozen=True)
class Experiment:
    """One fully specified collective-I/O run.

    Immutable and picklable — campaign workers receive Experiments over
    a process pool, and :meth:`replace` derives grid neighbours. All
    stochastic inputs (memory variance) are governed by ``seed``, so a
    spec determines its result exactly.

    Attributes:
        machine: preset name (``"testbed"``, ``"testbed-<nodes>"``,
            ``"petascale-2010"``, ``"exascale-2018"``) or a model.
        workload: a name from :data:`WORKLOAD_NAMES` or a
            :class:`Workload`; named specs read ``workload_params``.
        strategy: ``"independent"`` / ``"sieving"`` / ``"two-phase"`` /
            ``"mc"`` / ``"auto"`` or an :class:`IOStrategy`. ``"auto"``
            prices every candidate with the analytic cost model
            (:func:`repro.analysis.select_strategy`) and runs the
            cheapest; the pick and the price vector are recorded in the
            result's ``extras``/telemetry and in plan provenance.
        cb_buffer: shorthand overriding ``hints.cb_buffer_size`` (bytes).
        memory_variance_mean: when set, per-node available memory is
            drawn from Normal(mean, ``memory_variance_std``).
        config: MC tunables; ``None`` auto-tunes for the machine.
        faults: when set, a :class:`~repro.faults.FaultSpec` injected
            into the run — memory-pressure spikes, aggregator stalls,
            OST degradation, transient aborts — with the round engine's
            graceful-degradation reactions enabled. Collective
            strategies only.
    """

    machine: MachineModel | str = "testbed"
    workload: Workload | str = "ior"
    strategy: IOStrategy | str = "mc"
    n_procs: int = 120
    procs_per_node: int | None = 12
    placement: str = "block"
    seed: int | None = 7
    kind: str = "write"
    hints: CollectiveHints | None = None
    cb_buffer: int | None = None
    memory_variance_mean: int | None = None
    memory_variance_std: int = mib(50)
    config: MemoryConsciousConfig | None = None
    workload_params: Mapping[str, Any] = field(default_factory=dict)
    track_data: bool = False
    file_name: str = "exp.dat"
    faults: FaultSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("write", "read"):
            raise ConfigurationError(f"kind must be 'write' or 'read', got {self.kind!r}")
        if self.n_procs <= 0:
            raise ConfigurationError(f"n_procs must be positive, got {self.n_procs}")
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise ConfigurationError(
                f"faults must be a FaultSpec or None, got {type(self.faults).__name__}"
            )

    # ------------------------------------------------------------- builders
    def replace(self, **changes: Any) -> Experiment:
        """Copy with modified fields (grid construction primitive)."""
        return dataclasses.replace(self, **changes)

    def resolve_machine(self) -> MachineModel:
        return resolve_machine(self.machine)

    def resolve_workload(self) -> Workload:
        return resolve_workload(self.workload, self.n_procs, self.workload_params)

    def resolve_hints(self) -> CollectiveHints:
        hints = self.hints if self.hints is not None else CollectiveHints()
        if self.cb_buffer is not None:
            hints = hints.with_buffer(self.cb_buffer)
        return hints

    def auto_choice(self) -> StrategyChoice:
        """The cost model's pick for ``strategy="auto"``.

        Prices every candidate from the workload's columnar pattern and
        the machine model. With an active fault spec only the collective
        candidates are priced — they alone own a round engine that can
        degrade gracefully. Deterministic for a given spec, so the
        several callers (``spec()``/``run()``/``plan()``) always agree;
        selection is closed-form arithmetic over the flattened pattern,
        cheap enough to recompute rather than cache on the frozen spec.
        """
        if self.strategy != "auto":
            raise ConfigurationError(
                f"auto_choice() is only meaningful for strategy='auto' "
                f"(this experiment uses {self.strategy!r})"
            )
        machine = self.resolve_machine()
        faults_active = self.faults is not None and not self.faults.is_empty
        choice = select_strategy(
            machine,
            self.resolve_workload().flat_requests(),
            n_procs=self.n_procs,
            procs_per_node=self.procs_per_node,
            placement=self.placement,
            hints=self.resolve_hints(),
            config=self.config if self.config is not None else _auto_config(machine),
            kind=self.kind,
            candidates=(
                FAULT_CAPABLE_CANDIDATES if faults_active else AUTO_CANDIDATES
            ),
        )
        return choice

    def resolve_strategy(self, machine: MachineModel | None = None) -> IOStrategy:
        return resolve_strategy(
            self.strategy,
            machine if machine is not None else self.resolve_machine(),
            self.config,
            choice=self.auto_choice() if self.strategy == "auto" else None,
        )

    def context(self) -> IOContext:
        """Build the run's context: cluster, comm, PFS, variance applied."""
        variance = (
            (self.memory_variance_mean, self.memory_variance_std)
            if self.memory_variance_mean is not None
            else None
        )
        return make_context(
            self.resolve_machine(),
            self.n_procs,
            procs_per_node=self.procs_per_node,
            placement=self.placement,  # type: ignore[arg-type]
            hints=self.resolve_hints(),
            track_data=self.track_data,
            seed=self.seed,
            memory_variance=variance,
        )

    def requests(self) -> list[AccessRequest]:
        return self.resolve_workload().requests(with_data=self.track_data)

    # ------------------------------------------------------------ execution
    def supports_plan_cache(self) -> bool:
        """True when the strategy exposes a separable plan (MC only)."""
        if self.strategy == "auto":
            return self.auto_choice().chosen == "mc"
        return self.strategy == "mc" or isinstance(
            self.strategy, MemoryConsciousCollectiveIO
        )

    def plan(self, ctx: IOContext | None = None) -> CollectivePlan:
        """Plan without executing (memory-conscious strategy only)."""
        machine = self.resolve_machine()
        strategy = self.resolve_strategy(machine)
        if not isinstance(strategy, MemoryConsciousCollectiveIO):
            raise ConfigurationError(
                f"strategy {strategy.name!r} has no separable planning phase"
            )
        if ctx is None:
            ctx = self.context()
        plan = strategy.plan(ctx, flatten_requests(self.requests()))
        # Stamp the plan with the experiment identity it was built for,
        # so cached copies can be checked against the cache key they are
        # loaded under (repro.analysis.verify PV111).
        plan.spec_hash = self.spec_hash()
        if self.strategy == "auto":
            # Auto-pick provenance: the verifier re-checks the pick was
            # priced-cheapest (PV117) on every cache hit.
            plan.auto_choice = self.auto_choice().provenance()
        return plan

    def fault_runtime(
        self, ctx: IOContext, *, attempt: int = 0
    ) -> FaultRuntime | None:
        """Load this experiment's fault schedule against ``ctx``.

        ``attempt`` salts the schedule so campaign retries of a
        transiently-failed point see fresh conditions. Returns ``None``
        when the experiment has no (or an empty) fault spec.
        """
        if self.faults is None or self.faults.is_empty:
            return None
        return FaultRuntime(self.faults, ctx, attempt=attempt)

    def run(
        self,
        *,
        ctx: IOContext | None = None,
        plan: CollectivePlan | None = None,
        fault_attempt: int = 0,
    ) -> CollectiveResult:
        """Execute the experiment; returns the strategy's result.

        Pass ``ctx`` to run against a context you built (and want to
        inspect afterwards — e.g. byte verification against the file);
        pass ``plan`` to replay a cached memory-conscious plan;
        ``fault_attempt`` salts the fault schedule on campaign retries.
        """
        machine = self.resolve_machine()
        strategy = self.resolve_strategy(machine)
        if self.faults is not None and not self.faults.is_empty:
            if not strategy.supports_faults:
                raise ConfigurationError(
                    f"strategy {strategy.name!r} has no round engine to "
                    "degrade; fault injection needs a collective strategy"
                )
        if ctx is None:
            ctx = self.context()
        faults = self.fault_runtime(ctx, attempt=fault_attempt)
        file = ctx.pfs.open(self.file_name)
        requests = self.requests()
        if plan is not None:
            if not isinstance(strategy, MemoryConsciousCollectiveIO):
                raise ConfigurationError(
                    f"strategy {strategy.name!r} cannot replay a plan"
                )
            result = strategy.run(
                ctx, file, requests, kind=self.kind, plan=plan, faults=faults
            )
        else:
            result = strategy.run(ctx, file, requests, kind=self.kind, faults=faults)
        if self.strategy == "auto":
            self._annotate_auto(result)
        return result

    def _annotate_auto(self, result: CollectiveResult) -> None:
        """Record the auto pick and price vector on a result."""
        choice = self.auto_choice()
        result.extras["auto_strategy"] = choice.chosen
        result.extras["auto_prices"] = {
            name: float(price) for name, price in sorted(choice.prices.items())
        }
        if result.telemetry is not None:
            result.telemetry.count(f"auto_pick_{choice.chosen}")
            for name, price in sorted(choice.prices.items()):
                result.telemetry.count(f"auto_price_us_{name}", price * 1e6)

    # ---------------------------------------------------------- description
    def spec(self) -> dict:
        """Canonical JSON-safe description (the plan-cache identity).

        Everything that can influence the simulated outcome is included;
        equivalent specs written differently (``machine="testbed"`` vs a
        ``testbed_640()`` instance) canonicalize identically because the
        resolved objects, not the input forms, are serialized.
        """
        machine = self.resolve_machine()
        strategy = self.resolve_strategy(machine)
        mc_config = (
            dataclasses.asdict(strategy.config)
            if isinstance(strategy, MemoryConsciousCollectiveIO)
            else None
        )
        machine_dict = dataclasses.asdict(machine)
        if machine_dict.get("remote_pool") is None:
            # Pool-less specs keep the hashes they had before the remote
            # tier existed (same idiom as the faults key below).
            machine_dict.pop("remote_pool", None)
        return {
            "machine": machine_dict,
            "workload": _workload_fingerprint(self.resolve_workload()),
            "strategy": {"name": strategy.name, "config": mc_config},
            "hints": dataclasses.asdict(self.resolve_hints()),
            "n_procs": self.n_procs,
            "procs_per_node": self.procs_per_node,
            "placement": self.placement,
            "seed": self.seed,
            "kind": self.kind,
            "memory_variance": (
                [self.memory_variance_mean, self.memory_variance_std]
                if self.memory_variance_mean is not None
                else None
            ),
            "track_data": self.track_data,
            "file_name": self.file_name,
            # Included only when set, so fault-free specs keep the hashes
            # they had before the fault layer existed.
            **(
                {"faults": self.faults.to_dict()}
                if self.faults is not None and not self.faults.is_empty
                else {}
            ),
        }

    def spec_hash(self) -> str:
        """SHA-256 of the canonical spec — the campaign/plan-cache key."""
        return _hash_spec(self.spec())

    def label(self) -> str:
        """Short human-readable tag for tables and progress lines."""
        strategy = (
            self.strategy if isinstance(self.strategy, str) else self.strategy.name
        )
        workload = (
            self.workload if isinstance(self.workload, str) else self.workload.name
        )
        machine = (
            self.machine if isinstance(self.machine, str) else self.machine.name
        )
        buf = f" cb={self.cb_buffer >> 20}MiB" if self.cb_buffer is not None else ""
        return (
            f"{workload}/{strategy} {self.kind} p{self.n_procs} "
            f"seed{self.seed}{buf} @{machine}"
        )
