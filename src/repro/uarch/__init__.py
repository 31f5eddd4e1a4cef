"""Cycle-level in-order superscalar model plus a timing-free functional
executor for profiling and differential testing."""

from .config import MachineConfig
from .core import InOrderCore, SimulationError, SimulationResult
from .ooo import OutOfOrderCore
from .functional import (
    FunctionalResult,
    always_not_taken,
    always_taken,
    capture_trace,
    collect_branch_trace,
    execute,
)
from .replay import (
    FUSED_FALLBACK_REASONS,
    fused_sweep,
    replay_inorder,
    replay_inorder_sweep,
    replay_ooo,
)
from .replay_vec import DECLINE_REASONS, ReplayDeclined
from .stats import SimStats
from .trace import (
    Trace,
    TraceCapture,
    TraceError,
    TraceMismatch,
    content_digest,
    predictor_id,
)
from .visualize import TraceRow, collect_timeline, render_timeline

__all__ = [
    "DECLINE_REASONS",
    "FUSED_FALLBACK_REASONS",
    "FunctionalResult",
    "InOrderCore",
    "OutOfOrderCore",
    "ReplayDeclined",
    "MachineConfig",
    "SimStats",
    "Trace",
    "TraceCapture",
    "TraceError",
    "TraceMismatch",
    "TraceRow",
    "collect_timeline",
    "content_digest",
    "predictor_id",
    "fused_sweep",
    "render_timeline",
    "replay_inorder",
    "replay_inorder_sweep",
    "replay_ooo",
    "SimulationError",
    "SimulationResult",
    "always_not_taken",
    "always_taken",
    "capture_trace",
    "collect_branch_trace",
    "execute",
]
