"""Generate EXPERIMENTS.md from a saved full-scale run.

``python -m repro.experiments.write_report results/experiments_full.json``
renders the measured-vs-published record for every table and figure.  The
JSON is produced by the generation script documented in EXPERIMENTS.md
itself (600 iterations, two REF inputs, the Table 1 4-wide machine).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

from ..workloads import BENCHMARKS

_HEADER = """# EXPERIMENTS — measured vs published

Reproduction record for every table and figure in the paper's evaluation.
Workloads are synthetic programs calibrated to the paper's own
characterisation columns (see DESIGN.md §2); **shape** (ordering, signs,
mechanisms), not absolute SPEC numbers, is the reproduction target.

Configuration: Table 1 machine, 4-wide, hybrid 24 KB predictor; workloads
at 600 iterations; profile on the TRAIN seed, evaluation geomean over two
REF seeds. Regenerate with:

```bash
pytest benchmarks/ --benchmark-only               # per-figure, moderate scale
REPRO_BENCH_ITERATIONS=600 REPRO_BENCH_SEEDS=2 \\
    pytest benchmarks/ --benchmark-only           # full scale
python -m repro.experiments.write_report results/experiments_full.json
```
"""

_SUITE_TITLES = {
    "int2006": "SPEC 2006 INT (Figures 8-9, Table 2 upper half)",
    "fp2006": "SPEC 2006 FP (Figure 12, Table 2 lower half)",
    "int2000": "SPEC 2000 INT (Figures 10-11)",
    "fp2000": "SPEC 2000 FP (Figure 13)",
}


def _speedup_table(rows: List[Dict], geomean: float, paper_geomean: float) -> str:
    lines = [
        "| benchmark | SPD % (measured) | SPD % (published) | best input % | PBC meas/pub | MPPKI meas/pub |",
        "|---|---|---|---|---|---|",
    ]
    for row in sorted(rows, key=lambda r: -r["spd"]):
        paper = BENCHMARKS[row["name"]].paper
        lines.append(
            f"| {row['name']} | {row['spd']:.1f} | {row['paper_spd']:.1f} | "
            f"{row['best']:.1f} | {row['pbc']:.0f}/{paper.pbc:.0f} | "
            f"{row['mppki']:.1f}/{paper.mppki:.1f} |"
        )
    lines.append(
        f"| **geomean** | **{geomean:.1f}** | **{paper_geomean:.1f}** | | | |"
    )
    return "\n".join(lines)


def render(data: Dict) -> str:
    parts = [_HEADER]

    parts.append("## Headline speedups (Figures 8-13)\n")
    for suite, title in _SUITE_TITLES.items():
        block = data[suite]
        parts.append(f"### {title}\n")
        parts.append(
            _speedup_table(
                block["rows"], block["geomean"], block["paper_geomean"]
            )
        )
        parts.append("")

    int06 = data["int2006"]
    fp06 = data["fp2006"]
    parts.append(
        f"**Shape summary.** INT gains exceed FP gains "
        f"({int06['geomean']:.1f}% vs {fp06['geomean']:.1f}%; paper 11% vs "
        "7%); the INT ordering keeps the published top cluster "
        "(h264ref/omnetpp-class) above the published floor "
        "(hmmer/libquantum); the FP tail (leslie3d, cactusADM, dealII, "
        "bwaves) stays near zero as published. Magnitudes are compressed "
        "roughly 0.5-0.7x relative to the paper, consistent with a "
        "shallower simulated machine (our resolution stalls, though "
        "matched in *class* to ASPCB, sit on a 5-stage front end rather "
        "than PTLSim's full x86 pipeline) and with synthetic inputs that "
        "expose fewer convertible branches per benchmark than REF inputs "
        "do. Notable outliers are annotated in DESIGN.md §5 (gates "
        "derived from ALPBB/PDIH/PHI).\n"
    )

    parts.append("## Table 2 characterisation columns\n")
    parts.append(
        "Measured alongside SPD above: PBC tracks published conversion "
        "rates (it is a designed input realised through the *measured* "
        "selection heuristic); MPPKI lands within ~2x of published for "
        "most rows (capped below for mcf/gobmk: a 12-site workload cannot "
        "reach 25 MPPKI without destroying its candidate population); "
        "ASPCB is reproduced in class (L2/L3/DRAM-bound resolutions) "
        "though our queueing-inclusive accounting reads higher than the "
        "paper's for chase-heavy rows; PISCS averages "
        f"{data['icache']['mean_piscs']:.1f}% (published average ~9%).\n"
    )

    parts.append("## Section 5.3 — predictor sensitivity\n")
    sens = data["sensitivity"]
    parts.append(
        "| benchmark | % speedup per 1% mispredict reduction (paper ~0.3) |"
    )
    parts.append("|---|---|")
    for name, slope in sens["slopes"].items():
        parts.append(f"| {name} | {slope:+.3f} |")
    parts.append("")
    parts.append(
        "Ladder: bimodal -> gshare -> hybrid-24KB -> TAGE -> ISL-TAGE-64KB. "
        "Full per-point data in results/sec53_predictor_sensitivity.txt. "
        "One engine job runs a benchmark's whole ladder (four jobs for the "
        "four benchmarks); see \"One job per benchmark on the ladder\" "
        "below.\n"
    )

    parts.append("## Figure 14 — issued-instruction overhead\n")
    inc = data["issue_increase"]
    int_vals = [v for n, v in inc if BENCHMARKS[n].suite == "int2006"]
    fp_vals = [v for n, v in inc if BENCHMARKS[n].suite == "fp2006"]
    parts.append(
        f"Mean increase: INT {sum(int_vals)/len(int_vals):.2f}%, "
        f"FP {sum(fp_vals)/len(fp_vals):.2f}% "
        "(paper: INT under ~1%, FP negligible). Our INT overhead reads "
        "slightly higher because the synthetic programs are all hot "
        "region: every converted branch executes every iteration.\n"
    )

    parts.append("## Section 6.1 — code size and I-cache\n")
    ic = data["icache"]
    parts.append(
        f"* 32 KB -> 24 KB I$ baseline slowdown: {ic['geo_slow']:.2f}% "
        "geomean (paper <0.5%).\n"
        f"* Static code growth (PISCS): {ic['mean_piscs']:.1f}% mean "
        "(paper ~9%).\n"
        "* I$ misses under a mispredict shadow: small minority share "
        "(paper ~15%); see results/sec61_icache.txt for the per-benchmark "
        "numbers (synthetic I-footprints are small, so the absolute miss "
        "counts are tiny).\n"
    )

    if "motivation" in data:
        parts.append("## Section 1 premise — in-order vs out-of-order\n")
        parts.append(
            "| benchmark | in-order speedup % | OOO speedup % | OOO-over-in-order baseline % |"
        )
        parts.append("|---|---|---|---|")
        for row in data["motivation"]:
            parts.append(
                f"| {row['b']} | {row['inorder']:.1f} | {row['ooo']:.1f} | "
                f"{row['ooo_base']:.1f} |"
            )
        parts.append("")
        parts.append(
            "The transformation pays on the in-order machine and buys the "
            "out-of-order reference core essentially nothing -- the "
            "premise the paper builds on (Section 1, citing the authors' "
            "ASPLOS'13 study).\n"
        )

    if "quadrants" in data:
        parts.append("## Figure 1 prescriptions, validated\n")
        parts.append("| quadrant | predication % | decomposition % | winner |")
        parts.append("|---|---|---|---|")
        for row in data["quadrants"]:
            parts.append(
                f"| {row['q']} | {row['pred']:.1f} | {row['dec']:.1f} | "
                f"{row['winner']} |"
            )
        parts.append("")
        parts.append(
            "Each treatment wins exactly its own quadrant: decomposition "
            "on the unbiased-but-predictable branch, if-conversion on the "
            "unbiased-unpredictable one, and neither fires on the "
            "highly-biased branch.\n"
        )

    parts.append("## Conceptual figures\n")
    parts.append(
        "* **Figure 1** (taxonomy): regenerated as a census -- "
        "benchmarks' profiled branches fall into superblock / decompose / "
        "predication classes in proportions tracking PBC "
        "(results/fig01_taxonomy.txt).\n"
        "* **Figures 2-3** (predictability vs bias): regenerated curves "
        "show the published signature -- head where the two coincide near "
        "1.0, tail where bias dives toward 0.5 while predictability holds "
        "(results/fig02..03_*.txt).\n"
        "* **Figures 4-7** are mechanism diagrams; their content is "
        "implemented (and unit-tested) rather than measured: Fig. 5's "
        "transformation in repro.core.decompose, Fig. 6 in "
        "examples/omnetpp_carray.py, Fig. 7's DBB in repro.core.dbb.\n"
        "* **Table 1** is asserted verbatim by tests/uarch/test_config.py.\n"
    )

    parts.append("## Runtime: parallel engine, cache, manifests\n")
    parts.append(
        "Regeneration runs through "
        "`repro.experiments.engine.ExperimentEngine`, which decomposes "
        "every table/figure into independent (benchmark × REF seed) "
        "simulation jobs.\n\n"
        "* **`REPRO_JOBS`** (env) or **`--jobs`** (CLI) sets the "
        "worker-process count; the default is every core.  `jobs=1` is "
        "the serial in-process path.  Reassembly is ordered by "
        "submission, so every worker count produces byte-identical "
        "outputs (asserted by `tests/integration/test_engine.py` and "
        "`benchmarks/test_engine_smoke.py`).\n"
        "* **Cache** (`results/.cache/`, relocatable via "
        "`REPRO_CACHE_DIR`, disabled by `REPRO_CACHE=0` / `--no-cache`): "
        "each finished job is stored under a SHA-256 key covering the "
        "job function's qualified name, the benchmark, seed, widths, "
        "every `RunConfig`/`MachineConfig`/`SelectionConfig`/"
        "`TransformConfig` field (callables fingerprint by qualified "
        "name), a hash of all `repro` sources, and a cache-schema "
        "version.  **Invalidation rules**: editing any field of any "
        "config, any `src/repro/**.py` file, or the schema version "
        "misses; editing docs, tests, or archived results hits.  Delete "
        "the directory to clear it.\n"
        "* **Manifests**: each regenerated table/figure gets a "
        "`results/<name>.manifest.json` (the CLI writes "
        "`run_manifest.json` into the cache root's parent directory, "
        "`results/` by default) with this schema:\n\n"
        "```json\n"
        "{\n"
        '  "schema": 1,\n'
        '  "written_unix": 1700000000.0,\n'
        '  "engine": {"jobs": 8, "cache_dir": "...", '
        '"cache_enabled": true,\n'
        '             "code_version": "<16-hex source hash>"},\n'
        '  "totals": {"jobs": 29, "cache_hits": 29, "cache_misses": 0,\n'
        '             "wall_s": 47.0, "simulated_cycles": 12996103},\n'
        '  "jobs": [{"label": "h264ref@seed1", "key": "<sha256>",\n'
        '            "cache": "hit", "wall_s": 1.77, '
        '"simulated_cycles": 302675}],\n'
        '  "config": {"__class__": "RunConfig", "...": "every field"}\n'
        "}\n"
        "```\n\n"
        "Metric provenance: every Table 2 column is measured on the "
        "4-wide runs (the configuration the published table reports) "
        "and averaged over all REF inputs; SPD is the geomean over REF "
        "inputs at 4-wide.\n"
    )

    parts.append("## Known deviations\n")
    parts.append(
        "1. **Magnitude compression (~0.5-0.7x)** on headline speedups; "
        "see the shape summary above.\n"
        "2. **mcf family**: reproduced at the published level only after "
        "applying the paper's own explanation (misses 'difficult to "
        "cover') as a one-load cap on hoistable cold MLP; without it the "
        "simulated mcf over-benefits (a pointer chase overlapped with a "
        "pointer chase is worth ~140 cycles per conversion).\n"
        "3. **ASPCB accounting** includes in-order queueing delay, so "
        "chase-heavy rows read higher than published; the column's "
        "*ordering* across benchmarks is preserved.\n"
        "4. **Per-benchmark scatter** is larger than the paper's because "
        "each synthetic benchmark has 10-12 branch sites rather than "
        "thousands; single selection decisions move whole percentage "
        "points.\n"
    )
    return "\n".join(parts)


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "results/experiments_full.json"
    with open(path) as handle:
        data = json.load(handle)
    text = render(data)
    with open("EXPERIMENTS.md", "w") as handle:
        handle.write(text)
    print(f"wrote EXPERIMENTS.md from {path}")


if __name__ == "__main__":  # pragma: no cover
    main()
