"""Figures 8-13: per-benchmark % speedup bar charts.

* Fig. 8 / 10 / 12 / 13: speedup averaged over all REF inputs for
  SPEC2006-INT / SPEC2000-INT / SPEC2006-FP / SPEC2000-FP.
* Fig. 9 / 11: the best-performing REF input (SPEC2006/2000 INT).

Each run covers the experimentally-varied widths (2/4/8 in the paper).
The per-seed jobs ride the harness's trace fast path: within one
benchmark the committed stream is captured once by the functional pass
and every width replays it (the engine schedules one seed job per
benchmark as the group leader so siblings find its artifacts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis import geomean_speedup, render_bars
from .engine import ExperimentEngine, get_engine
from .harness import BenchmarkOutcome, RunConfig, run_suite

#: Figure number -> (suite, use best input instead of the all-input mean).
FIGURES: Dict[str, Tuple[str, bool]] = {
    "fig8": ("int2006", False),
    "fig9": ("int2006", True),
    "fig10": ("int2000", False),
    "fig11": ("int2000", True),
    "fig12": ("fp2006", False),
    "fig13": ("fp2000", False),
}


@dataclass
class SpeedupFigure:
    figure: str
    suite: str
    best_input: bool
    #: series[width] -> ordered (benchmark, % speedup)
    series: Dict[int, List[Tuple[str, float]]]
    #: (benchmark, status) for benchmarks whose jobs failed; their bars
    #: are omitted and called out in the rendering instead.
    failed: List[Tuple[str, str]] = field(default_factory=list)

    def geomean(self, width: int) -> float:
        return geomean_speedup([v for _, v in self.series[width]])

    def render(self) -> str:
        blocks = []
        flavour = "best input" if self.best_input else "all inputs"
        for width, values in sorted(self.series.items()):
            blocks.append(
                render_bars(
                    values,
                    title=(
                        f"{self.figure}: {self.suite} speedup, {flavour}, "
                        f"{width}-wide (geomean {self.geomean(width):.1f}%)"
                    ),
                )
            )
        if self.failed:
            blocks.append(
                "missing bars (job failures): "
                + ", ".join(f"{n} [{s}]" for n, s in self.failed)
            )
        return "\n\n".join(blocks)


def run_figure(
    figure: str,
    config: Optional[RunConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> SpeedupFigure:
    if figure not in FIGURES:
        raise KeyError(f"unknown figure {figure!r}; one of {sorted(FIGURES)}")
    suite, best = FIGURES[figure]
    config = config or RunConfig(widths=(2, 4, 8))
    outcomes = get_engine(engine).run_suite(suite, config)
    measured = [o for o in outcomes if o.ok]
    series: Dict[int, List[Tuple[str, float]]] = {}
    for width in config.widths:
        values = [
            (
                o.name,
                o.best_input_speedup(width) if best else o.mean_speedup(width),
            )
            for o in measured
        ]
        values.sort(key=lambda pair: -pair[1])
        series[width] = values
    return SpeedupFigure(
        figure=figure,
        suite=suite,
        best_input=best,
        series=series,
        failed=[(o.name, o.status) for o in outcomes if not o.ok],
    )


def main() -> None:  # pragma: no cover - CLI entry
    import sys

    figure = sys.argv[1] if len(sys.argv) > 1 else "fig8"
    print(run_figure(figure).render())


if __name__ == "__main__":  # pragma: no cover
    main()
