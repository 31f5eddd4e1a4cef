"""Trace-replay front doors: re-time a committed stream, bit-exactly.

Replay re-runs the timing model of :mod:`repro.uarch.core` or
:mod:`repro.uarch.ooo` over a captured committed stream with the
*architectural* work removed: control flow comes from the trace's
``pcs`` column, branch/divert outcomes and load/store addresses from
its event columns.  The vectorized kernels (:mod:`.replay_vec`) and
the sweep-fused pass (:mod:`.replay_multi`) do the timing; the result
(full ``SimStats`` plus the final architectural state carried in the
trace) is bit-identical to an execute-driven run of the same program
under the same configuration, which stays the one golden oracle.

A trace the kernels cannot prove safe raises
:class:`~repro.uarch.replay_vec.ReplayDeclined` with a reason from
``DECLINE_REASONS``; the artifact store then runs the execute-driven
core instead and counts the decline by reason.

Two replay modes per conditional branch:

* **recorded** -- the replay configuration runs the same direction
  predictor the trace was captured under, so the captured
  predicted/actual bits are authoritative and the predictor is not
  even instantiated.  Always valid; the only legal mode for decomposed
  programs (their PREDICTs architecturally steer the committed path).
* **live** -- the configuration's predictor differs: a fresh predictor
  is lookup/updated with the recorded actual outcomes, recomputing the
  mispredict timing for *this* predictor.  Valid only for traces of
  programs without PREDICT/RESOLVE (``meta["has_decomposed"]`` false),
  whose committed stream is predictor-independent -- this is what lets
  one baseline trace serve a whole predictor-sensitivity ladder.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..isa import Memory
from . import replay_multi, replay_vec
from .config import MachineConfig
from .core import SimulationResult
from .replay_vec import ReplayDeclined
from .stats import SimStats
from .trace import Trace, TraceMismatch, content_digest, predictor_id

#: Why :func:`fused_sweep` declined a K > 1 sweep: recorded and live
#: lanes mixed, lanes on different prep slices, or the kernel declined
#: the trace (:class:`ReplayDeclined`).
FUSED_FALLBACK_REASONS = (
    "mixed_modes",
    "mismatched_slices",
    "kernel_declined",
)


def _describe(value) -> str:
    """Render an identity (content digest, predictor id) for an error
    message: hex digests cleanly shortened to ``head..tail``, anything
    else (predictor ids, odd metadata) verbatim -- never a truncated
    repr with a dangling quote."""
    if value is None:
        return "<none>"
    if not isinstance(value, str):
        return repr(value)
    is_digest = len(value) >= 32 and all(
        c in "0123456789abcdef" for c in value
    )
    if is_digest:
        return f"{value[:16]}..{value[-4:]}"
    return value


def _check_and_mode(program, trace: Trace, config: MachineConfig) -> bool:
    """Validate the trace against (program, config); return True for
    recorded-prediction mode, False for live-predictor mode."""
    digest = content_digest(program)
    if trace.meta.get("program") != digest:
        raise TraceMismatch(
            f"trace was captured from a different program "
            f"(trace program {_describe(trace.meta.get('program'))}, "
            f"requested program {_describe(digest)})"
        )
    pid = predictor_id(config.predictor_factory)
    recorded = pid is not None and trace.meta.get("predictor") == pid
    if not recorded and trace.meta.get("has_decomposed"):
        raise TraceMismatch(
            "a decomposed program's trace is predictor-specific: "
            f"captured under {_describe(trace.meta.get('predictor'))}, "
            f"cannot replay under {_describe(pid)}"
        )
    return recorded


def _final_state(program, trace: Trace, stats: SimStats) -> SimulationResult:
    """Materialise the architectural outcome recorded in the trace."""
    memory = Memory.from_snapshot(
        trace.meta["memory"], trace.meta["faults_suppressed"]
    )
    return SimulationResult(
        stats=stats,
        registers=list(trace.meta["registers"]),
        memory=memory,
        program=program,
    )


def replay_inorder(
    program,
    trace: Trace,
    config: Optional[MachineConfig] = None,
) -> SimulationResult:
    """Replay ``trace`` on the in-order timing model (vectorized
    kernel); raises :class:`ReplayDeclined` when the kernel declines."""
    config = config or MachineConfig()
    recorded = _check_and_mode(program, trace, config)
    stats = replay_vec.replay_inorder_stats(program, trace, config, recorded)
    return _final_state(program, trace, stats)


def fused_sweep(
    program,
    trace: Trace,
    configs: Sequence[MachineConfig],
) -> Tuple[Optional[List[SimulationResult]], str]:
    """Score every configuration of a sweep axis in one fused pass.

    Configurations that differ only in width, ports, front-end depth
    or bubble counts share one prep slice and so one fused kernel
    table; K > 1 of them are scored by one region-memoised walk
    (:mod:`.replay_multi`).  Returns ``(results, "fused")``, or
    ``(None, outcome)`` with ``outcome`` ``"per_point"``,
    ``"diverged"`` or one of :data:`FUSED_FALLBACK_REASONS`; the
    caller then replays per-point.
    """
    if len(configs) < 2:
        return None, "per_point"
    recorded_flags = [
        _check_and_mode(program, trace, config) for config in configs
    ]
    if any(recorded_flags) != all(recorded_flags):
        return None, "mixed_modes"
    try:
        stats_list = replay_multi.replay_inorder_multi_stats(
            program, trace, configs, recorded_flags[0]
        )
    except replay_multi.FusedLaneDivergence:
        return None, "diverged"
    except ReplayDeclined:
        return None, "kernel_declined"
    if stats_list is None:
        return None, "mismatched_slices"
    results = [_final_state(program, trace, stats) for stats in stats_list]
    return results, "fused"


def replay_inorder_sweep(
    program,
    trace: Trace,
    configs,
):
    """Replay ``trace`` under every configuration of a sweep axis.

    One fused pass when :func:`fused_sweep` accepts the sweep,
    otherwise one :func:`replay_inorder` per point, so the results
    are *always* bit-identical to K independent replays.  Returns
    ``(results, outcome)`` with :func:`fused_sweep`'s outcome.
    """
    configs = [config or MachineConfig() for config in configs]
    results, outcome = fused_sweep(program, trace, configs)
    if results is None:
        results = [
            replay_inorder(program, trace, config) for config in configs
        ]
    return results, outcome


def replay_ooo(
    program,
    trace: Trace,
    config: Optional[MachineConfig] = None,
    window: int = 64,
) -> SimulationResult:
    """Replay ``trace`` on the out-of-order timing model.

    The committed stream is core-independent (both cores execute the
    same architectural semantics in fetch order), so a trace captured
    for the in-order core replays on the OOO model and vice versa.
    Raises :class:`ReplayDeclined` when the kernel declines.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    config = config or MachineConfig()
    recorded = _check_and_mode(program, trace, config)
    stats = replay_vec.replay_ooo_stats(
        program, trace, config, recorded, window
    )
    return _final_state(program, trace, stats)
