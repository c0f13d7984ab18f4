"""L310: determinism taint — every RNG seed must trace to a spec field.

A taint analysis, not a name match.
Campaign replays, fault injection, and the simulator all promise
bit-identical reruns; that promise holds only if every random stream
is seeded from :class:`numpy.random.SeedSequence` material or a spec
field.  The rule classifies values flowing through a function:

* **trusted seed** — int literals, module constants, parameters or
  attributes with seed-ish names (``seed``, ``base_seed``,
  ``spec.seed``), ``SeedSequence(...)`` results and their
  ``.spawn()`` children, and arithmetic over trusted values;
* **trusted rng** — returns of ``make_rng``/``child_rng`` (the repo's
  blessed constructors) and of ``default_rng``/``Generator``/
  ``Random`` called with a trusted seed;
* **tainted** — wall-clock and entropy reads (``time.time``,
  ``os.urandom``, ``uuid.uuid4``, ``secrets.*``) and anything derived
  from them.

It then flags, in ``core``/``io``/``sim``/``faults``/``campaign``:

* an RNG constructor with **no** seed argument (fresh OS entropy);
* an RNG constructor whose seed is **tainted** or **untracked**
  (not derived from any trusted source the analysis can see);
* calls on the **module-global** RNGs (``random.random()``,
  legacy ``numpy.random.rand()``), whose hidden state no spec field
  controls.

Because the analysis is flow-sensitive, ``seq = SeedSequence(spec.seed);
rng = default_rng(seq)`` is clean across the assignment — exactly the
case a single-expression name match cannot express.
"""

from __future__ import annotations

import ast
from functools import partial

from .cfg import Item, LoopIter
from .flow import (
    Emit,
    FlowRule,
    FunctionUnit,
    ModuleContext,
    assign_target_keys,
    dotted_parts,
    expr_key,
    item_exprs,
    iter_calls,
    run_dataflow,
)

__all__ = ["DeterminismTaintRule"]

#: abstract values for the taint lattice (absence from env = untracked)
TRUSTED_SEED = "trusted-seed"
TRUSTED_RNG = "trusted-rng"
TAINTED = "tainted"

_Env = dict[str, str]

#: entropy / wall-clock producers: anything derived from these taints
_TAINT_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.perf_counter",
        "os.urandom",
        "os.getpid",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
        "secrets.randbelow",
    }
)

#: RNG constructors that take an (optional) seed as first argument
_RNG_CONSTRUCTORS = frozenset(
    {"numpy.random.default_rng", "random.Random", "numpy.random.RandomState"}
)

#: numpy.random attributes that are deterministic machinery, not the
#: hidden global stream
_NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
     "Philox", "RandomState"}
)

#: stdlib ``random`` module functions that hit the hidden global RNG
_RANDOM_GLOBAL_FNS = frozenset(
    {"random", "randint", "uniform", "choice", "choices", "shuffle", "sample",
     "randrange", "gauss", "normalvariate", "betavariate", "expovariate",
     "seed", "getrandbits", "randbytes", "triangular", "vonmisesvariate"}
)

#: repo-blessed RNG factories (resolved suffixes after import expansion)
_BLESSED_FACTORIES = ("make_rng", "child_rng")


def _seedish(name: str) -> bool:
    lowered = name.lower()
    return (
        lowered == "seed"
        or lowered.endswith("_seed")
        or lowered.startswith("seed_")
        or lowered == "entropy"
        or lowered == "spawn_key"
    )


def _rngish(name: str) -> bool:
    lowered = name.lower()
    return (
        lowered in {"rng", "gen", "generator", "rand"}
        or lowered.endswith("_rng")
        or lowered.endswith("rng")
    )


class DeterminismTaintRule(FlowRule):
    """L310: RNG seeds must derive from SeedSequence/spec fields."""

    codes = {"L310": "RNG seed does not trace to SeedSequence/spec fields"}
    packages = frozenset({"core", "io", "sim", "faults", "campaign"})

    def check_function(
        self, ctx: ModuleContext, unit: FunctionUnit, emit: Emit
    ) -> None:
        initial: _Env = {}
        for param in unit.params:
            if _seedish(param):
                initial[param] = TRUSTED_SEED
            elif _rngish(param):
                initial[param] = TRUSTED_RNG
        run_dataflow(
            unit.cfg, initial, partial(self._transfer, ctx), _join_env, emit
        )

    # ------------------------------------------------------------ transfer
    def _transfer(
        self,
        ctx: ModuleContext,
        env: _Env,
        item: Item,
        report: Emit | None,
    ) -> _Env:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return env
        if report is not None:
            for expr in item_exprs(item):
                call_env = self._with_comprehension_targets(ctx, env, expr)
                for call in iter_calls(expr):
                    self._check_call(ctx, call_env, call, report)
        if isinstance(item, LoopIter):
            cls = self._classify(ctx, env, item.iter)
            if cls is not None:
                env = dict(env)
                for key in assign_target_keys(item.target):
                    env[key] = TRUSTED_SEED if cls == TRUSTED_SEED else cls
            return env
        if isinstance(item, ast.Assign):
            cls = self._classify(ctx, env, item.value)
            env = dict(env)
            for target in item.targets:
                for key in assign_target_keys(target):
                    if cls is None:
                        env.pop(key, None)
                    else:
                        env[key] = cls
            return env
        if isinstance(item, ast.AnnAssign) and item.value is not None:
            cls = self._classify(ctx, env, item.value)
            env = dict(env)
            for key in assign_target_keys(item.target):
                if cls is None:
                    env.pop(key, None)
                else:
                    env[key] = cls
            return env
        if isinstance(item, ast.AugAssign):
            key = expr_key(item.target)
            if key is not None:
                left = env.get(key)
                right = self._classify(ctx, env, item.value)
                env = dict(env)
                if TAINTED in (left, right):
                    env[key] = TAINTED
                elif left == TRUSTED_SEED and right in (TRUSTED_SEED, None):
                    # += over a trusted seed with a literal stays trusted
                    if right is None and not isinstance(
                        item.value, ast.Constant
                    ):
                        env.pop(key, None)
                else:
                    env.pop(key, None)
            return env
        return env

    def _with_comprehension_targets(
        self, ctx: ModuleContext, env: _Env, expr: ast.expr
    ) -> _Env:
        """Env extended with comprehension-loop bindings inside ``expr``.

        ``[default_rng(child) for child in seq.spawn(n)]`` binds
        ``child`` only inside the comprehension, so the statement-level
        transfer never sees it; classify each generator's iterable and
        bind its targets the same way a ``for`` header would.
        """
        extra: _Env | None = None
        comps = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        for node in ast.walk(expr):
            if not isinstance(node, comps):
                continue
            for gen in node.generators:
                cls = self._classify(ctx, extra or env, gen.iter)
                if cls is None:
                    continue
                if extra is None:
                    extra = dict(env)
                for key in assign_target_keys(gen.target):
                    extra[key] = cls
        return extra if extra is not None else env

    # ------------------------------------------------------------ classify
    def _classify(
        self, ctx: ModuleContext, env: _Env, expr: ast.expr
    ) -> str | None:
        """Abstract value of ``expr`` (None = untracked)."""
        if isinstance(expr, ast.Constant):
            return TRUSTED_SEED if isinstance(expr.value, int) else None
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            if expr.id in ctx.constants:
                return TRUSTED_SEED
            if _seedish(expr.id):
                return TRUSTED_SEED
            return None
        if isinstance(expr, ast.Attribute):
            key = expr_key(expr)
            if key is not None and key in env:
                return env[key]
            if _seedish(expr.attr):
                return TRUSTED_SEED  # spec.seed, cfg.base_seed, ...
            if _rngish(expr.attr):
                return TRUSTED_RNG  # self._rng constructed under L310 too
            return None
        if isinstance(expr, ast.Subscript):
            return self._classify(ctx, env, expr.value)
        if isinstance(expr, (ast.Tuple, ast.List)):
            parts = [self._classify(ctx, env, e) for e in expr.elts]
            if any(p == TAINTED for p in parts):
                return TAINTED
            if parts and all(p == TRUSTED_SEED for p in parts):
                return TRUSTED_SEED
            return None
        if isinstance(expr, ast.BinOp):
            left = self._classify(ctx, env, expr.left)
            right = self._classify(ctx, env, expr.right)
            if TAINTED in (left, right):
                return TAINTED
            if TRUSTED_SEED in (left, right):
                # Arithmetic over a trusted seed (offsets, strides,
                # rank mixing) still derives from the tracked source.
                return TRUSTED_SEED
            return None
        if isinstance(expr, ast.UnaryOp):
            return self._classify(ctx, env, expr.operand)
        if isinstance(expr, ast.Call):
            return self._classify_call(ctx, env, expr)
        return None

    def _classify_call(
        self, ctx: ModuleContext, env: _Env, call: ast.Call
    ) -> str | None:
        qual = ctx.qualified(call.func) or ""
        if qual in _TAINT_SOURCES:
            return TAINTED
        if qual in {"int", "float", "abs", "round", "hash"} and call.args:
            # Numeric coercions pass their argument's class through
            # (int(time.time()) stays tainted; int(spec.seed) trusted).
            return self._classify(ctx, env, call.args[0])
        if qual.endswith(".SeedSequence") or qual == "SeedSequence":
            return TRUSTED_SEED
        last = qual.rsplit(".", 1)[-1]
        if last in _BLESSED_FACTORIES:
            return TRUSTED_RNG
        if qual in _RNG_CONSTRUCTORS or qual.endswith(".Generator"):
            seed_cls = self._seed_arg_class(ctx, env, call)
            return TRUSTED_RNG if seed_cls in (TRUSTED_SEED, TRUSTED_RNG) else None
        if isinstance(call.func, ast.Attribute):
            receiver_cls = self._classify(ctx, env, call.func.value)
            if call.func.attr == "spawn" and receiver_cls in (
                TRUSTED_SEED,
                TRUSTED_RNG,
            ):
                # SeedSequence.spawn() / Generator.spawn() children
                return receiver_cls
            if receiver_cls == TRUSTED_RNG and call.func.attr in {
                "integers", "random", "normal", "uniform", "choice",
                "permutation", "bit_generator",
            }:
                # draws from a trusted stream are deterministic values,
                # usable as seeds downstream
                return TRUSTED_SEED
        return None

    def _seed_arg_class(
        self, ctx: ModuleContext, env: _Env, call: ast.Call
    ) -> str | None:
        """Classification of the seed argument of an RNG constructor."""
        seed_expr: ast.expr | None = None
        if call.args:
            seed_expr = call.args[0]
        else:
            for kw in call.keywords:
                if kw.arg in {"seed", "x"}:  # random.Random(x=...)
                    seed_expr = kw.value
                    break
        if seed_expr is None:
            return "absent"
        return self._classify(ctx, env, seed_expr)

    # ------------------------------------------------------------ reporting
    def _check_call(
        self, ctx: ModuleContext, env: _Env, call: ast.Call, report: Emit
    ) -> None:
        qual = ctx.qualified(call.func) or ""
        if qual in _RNG_CONSTRUCTORS or qual.endswith(".Generator"):
            cls = self._seed_arg_class(ctx, env, call)
            if cls == "absent":
                report(
                    "L310",
                    call.lineno,
                    f"{qual}() without a seed draws OS entropy; derive the "
                    "seed from SeedSequence/spec fields",
                    call=qual,
                    reason="unseeded",
                )
            elif cls == TAINTED:
                report(
                    "L310",
                    call.lineno,
                    f"{qual}() seeded from wall-clock/entropy material; "
                    "seeds must trace to SeedSequence/spec fields",
                    call=qual,
                    reason="tainted",
                )
            elif cls not in (TRUSTED_SEED, TRUSTED_RNG):
                report(
                    "L310",
                    call.lineno,
                    f"{qual}() seed does not trace to a SeedSequence/spec "
                    "source the analysis can see",
                    call=qual,
                    reason="untracked",
                )
            return
        parts = dotted_parts(call.func)
        if parts is None:
            return
        base = ctx.imports.get(parts[0], parts[0])
        resolved = (base, *parts[1:])
        if (
            len(resolved) == 2
            and resolved[0] == "random"
            and resolved[1] in _RANDOM_GLOBAL_FNS
        ):
            report(
                "L310",
                call.lineno,
                f"random.{resolved[1]}() uses the hidden module-global RNG; "
                "use repro.util.rng.make_rng / child_rng",
                call=f"random.{resolved[1]}",
                reason="module-global",
            )
            return
        if (
            len(resolved) == 3
            and resolved[0] == "numpy"
            and resolved[1] == "random"
            and resolved[2] not in _NP_RANDOM_OK
        ):
            report(
                "L310",
                call.lineno,
                f"numpy.random.{resolved[2]}() uses the legacy global "
                "stream; construct a Generator via make_rng",
                call=f"numpy.random.{resolved[2]}",
                reason="module-global",
            )


def _join_env(a: _Env, b: _Env) -> _Env:
    out: _Env = {}
    for key in a.keys() | b.keys():
        va, vb = a.get(key), b.get(key)
        if va == vb and va is not None:
            out[key] = va
        elif TAINTED in (va, vb):
            out[key] = TAINTED  # taint wins over any other fact
        # trusted-on-one-path only: drop to untracked
    return out
