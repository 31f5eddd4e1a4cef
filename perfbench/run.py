"""End-to-end benchmark: regenerate Fig. 8 and the Sec. 5.3 ladder.

    python3 perfbench/run.py --workload fig8_cold --seed 0 --seconds 20

A single client drives a closed loop: one regeneration at a time, each
in a fresh process (``rep.py``) through an ``ExperimentEngine`` with at
most two workers, until ``--seconds`` of regenerations have run.  Warm
workloads first prime their store until a whole regeneration writes
nothing.  Every regeneration's output (rendered text digest, simulated
cycles, committed instructions) is checked against the shipped
reference for the default seed, or against the first regeneration at
any other seed.

``--trace 0`` reports the end-to-end metrics as medians over the timed
regenerations.  ``--trace 1`` alternates untraced and traced
regenerations and reports the per-layer metrics of the traced ones plus
the tracing overhead.  The last line of stdout is one JSON object;
per-regeneration detail goes to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import ledger

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"

#: Every run must end within 180 s; no regeneration starts if it could
#: not finish before this many seconds from the start.
DEADLINE_S = 170.0

#: ``prctl`` option number, from ``<linux/prctl.h>``.
PR_SET_CHILD_SUBREAPER = 36

#: A warm store is primed by at most this many regenerations.
MAX_PRIME_PASSES = 4


class RepFailed(RuntimeError):
    """A regeneration process crashed, hung, or printed no record."""


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    Pool workers start shared-memory resource trackers that outlive
    them; adopted, they can be reaped here instead of lingering until
    init gets to them.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_group(pgid: int) -> None:
    """Kill what is left of a regeneration's process group and wait
    until every member has ended."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            # Members not adopted here: wait for whoever reaps them.
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)


def run_rep(spec: Dict, env: Dict[str, str], timeout: float) -> Dict:
    """One regeneration in a fresh process; its record plus ``elapsed``
    (spawn to exit, as the client saw it)."""
    spec = dict(spec, spawned=time.perf_counter())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.communicate()
        raise RepFailed(f"regeneration exceeded {timeout:.0f} s")
    finally:
        _reap_group(proc.pid)
    elapsed = time.perf_counter() - spec["spawned"]
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(
            f"regeneration exited {proc.returncode}:\n{err[-2000:]}"
        )
    record = json.loads(lines[-1])
    record["elapsed"] = elapsed
    return record


class Client:
    """The closed loop for one workload at one seed."""

    def __init__(self, workload: str, seed: int, work: pathlib.Path):
        self.workload = ledger.WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.jobs = min(2, len(os.sched_getaffinity(0)))
        self.expected = ledger.reference_for(
            workload, seed, ledger.load_references()
        )
        self.began = time.perf_counter()
        self.records: List[Dict] = []
        self.prime_passes = 0
        #: Client-side time of the priming regenerations (set-up).
        self.prime_s = 0.0
        (work / "tmp").mkdir(parents=True)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.began)

    def regenerate(self, trace: bool) -> Dict:
        """One regeneration, its output checked; not yet classified."""
        n = len(self.records)
        if self.workload.warm:
            store = self.work / "store"
        else:
            store = self.work / f"store-{n}"
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(store)
        env["TMPDIR"] = str(self.work / "tmp")
        spec = {
            "artifact": self.workload.artifact,
            "seed": self.seed,
            "store": str(store),
            "jobs": self.jobs,
            "result_cache": not self.workload.warm,
            "trace": trace,
            "spool": str(self.work / f"spans-{n}"),
        }
        record = run_rep(spec, env, max(1.0, self.remaining()))
        record["traced"] = trace
        if self.expected is None:
            self.expected = record["output"]
        record["mismatch"] = ledger.check_output(
            record["output"], self.expected
        )
        record["not_warm"] = []
        self.records.append(record)
        return record

    def run(self, seconds: float, trace: bool) -> None:
        """Regenerate until ``seconds`` of timed regenerations have run.

        A warm workload's regenerations count as priming, and their
        time as set-up, while they still capture, build or write to the
        store; the first one that does none of that shows the store is
        warm, and it and every later one are timed.  After
        :data:`MAX_PRIME_PASSES` priming regenerations the rest are
        timed anyway and each one that still does store work is
        reported as not warm.  With ``trace``, timed regenerations
        alternate untraced and traced (at least one of each).
        """
        primed = not self.workload.warm
        timed = 0
        longest = 0.0
        start = None
        while True:
            record = self.regenerate(trace=trace and timed % 2 == 1)
            longest = max(longest, record["elapsed"])
            store_work = (
                ledger.not_warm(record["artifacts"])
                if self.workload.warm
                else []
            )
            if not primed and store_work and (
                self.prime_passes < MAX_PRIME_PASSES
            ):
                record["phase"] = "prime"
                self.prime_passes += 1
                self.prime_s += record["elapsed"]
            else:
                primed = True
                record["phase"] = "timed"
                record["not_warm"] = store_work
                timed += 1
                start = start or time.perf_counter() - record["elapsed"]
            _log(len(self.records) - 1, record)
            if start is not None and (
                time.perf_counter() - start >= seconds
                and (not trace or timed >= 2)
            ):
                return
            if self.remaining() < 1.2 * longest:
                if timed < (2 if trace else 1):
                    raise RepFailed("out of time before enough regenerations")
                return


def _log(n: int, record: Dict) -> None:
    tag = "traced" if record["traced"] else record["phase"]
    problems = record["mismatch"] + (
        ["not warm: " + ", ".join(record["not_warm"])]
        if record["not_warm"]
        else []
    )
    status = "; ".join(problems) or "ok"
    print(
        f"[{n}] {tag:6} wall {record['wall_s']:.3f} s  setup "
        f"{record['setup_s']:.3f} s  rss {record['peak_rss_mb']:.0f} MB  "
        f"jobs {record['jobs']}  {status}",
        file=sys.stderr,
    )


def _usable(record: Dict, traced: bool) -> bool:
    """Timed, of the given kind, and warm where it had to be.  A wrong
    output is still timed: it is reported through ``correct``."""
    return (
        record["phase"] == "timed"
        and record["traced"] == traced
        and not record["not_warm"]
    )


def _median_of(records: List[Dict], key) -> float:
    return statistics.median(key(r) for r in records)


def end_to_end(
    untraced: List[Dict], prime_s: float, failed: int, attempted: int
) -> Dict[str, float]:
    """The end-to-end metrics of one run, from its timed regenerations."""
    return {
        "wall_s": _median_of(untraced, lambda r: r["wall_s"]),
        "sim_kips": _median_of(
            untraced,
            lambda r: r["output"]["instructions"] / r["wall_s"] / 1e3,
        ),
        "setup_s": prime_s + _median_of(untraced, lambda r: r["setup_s"]),
        "peak_rss_mb": _median_of(untraced, lambda r: r["peak_rss_mb"]),
        "store_mb": _median_of(untraced, lambda r: r["store_mb"]),
        "ok_share": 1.0 - failed / attempted,
        "spd_mae_pp": _median_of(untraced, lambda r: r["spd_mae_pp"]),
    }


def per_layer(traced: List[Dict], untraced_wall: float) -> Dict[str, float]:
    """Medians of the traced regenerations' layer metrics, plus the
    tracing overhead against the untraced median wall."""
    values = {
        name: _median_of(traced, lambda r, n=name: r["layers"][n])
        for name in traced[0]["layers"]
    }
    values["traced_wall_s"] = _median_of(traced, lambda r: r["wall_s"])
    values["trace_overhead"] = values["traced_wall_s"] / untraced_wall
    return values


def summarize(client: Client, trace: bool) -> Dict:
    records = client.records
    attempted = sum(r["jobs"] for r in records)
    failed = sum(
        r["failed_jobs"] + bool(r["mismatch"]) + bool(r["not_warm"])
        for r in records
    )
    untraced = [r for r in records if _usable(r, traced=False)]
    traced = [r for r in records if _usable(r, traced=True)]
    if not untraced or (trace and not traced):
        raise RepFailed("no regeneration was usable for timing")
    if trace:
        counted = traced
        values = per_layer(traced, _median_of(untraced, lambda r: r["wall_s"]))
        units = ledger.PER_LAYER
    else:
        counted = untraced
        values = end_to_end(untraced, client.prime_s, failed, attempted)
        units = ledger.END_TO_END
    print(
        f"{len(counted)} regenerations counted, {len(records)} run "
        f"(priming {client.prime_s:.3f} s)",
        file=sys.stderr,
    )
    for name, unit in units.items():
        print(f"  {name:42} {values[name]:.6g} {unit}", file=sys.stderr)
    return {
        "correct": not any(
            r["mismatch"] or r["failed_jobs"] for r in records
        ),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(ledger.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=ledger.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"no program source under {ROOT / 'src'}; run from a checkout",
            file=sys.stderr,
        )
        return 2
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    become_subreaper()
    try:
        client = Client(args.workload, args.seed, work)
        client.run(args.seconds, bool(args.trace))
        summary = summarize(client, bool(args.trace))
    except RepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
