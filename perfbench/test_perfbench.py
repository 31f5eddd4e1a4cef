"""Tests for the benchmark itself: ``python3 -m pytest perfbench -q``.

None of them regenerates an artifact; they check the benchmark's
declarations, its output check, and its span arithmetic.
"""

from __future__ import annotations

import copy
import multiprocessing
import re
import sys
import types

import pytest

import ledger
import run
import spans

BENCHMARK = ledger.BENCHMARK

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


# -- BENCHMARK.json against the code --------------------------------------


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    for path in BENCHMARK["paths"]:
        assert PATH.match(path) and ".." not in path.split("/")
        assert not path.startswith("/")


def test_workloads_match_the_code():
    declared = BENCHMARK["workloads"]
    assert [w["name"] for w in declared] == list(ledger.WORKLOADS)
    for entry in declared:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200


def test_end_to_end_declarations_keep_the_contract():
    declared = BENCHMARK["end_to_end"]
    for metric in declared:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in declared if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared)


def test_per_layer_declarations_keep_the_contract():
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("higher", "lower")


def _record(wall_s):
    return {
        "wall_s": wall_s, "setup_s": 0.5, "peak_rss_mb": 300.0,
        "store_mb": 47.0, "spd_mae_pp": 6.3,
        "output": {"instructions": 9_000_000},
        "layers": {"uarch.core.s": wall_s / 2},
    }


def test_end_to_end_computes_exactly_the_declared_metrics():
    records = [_record(3.0), _record(2.0), _record(4.0)]
    values = run.end_to_end(records, prime_s=10.0, failed=1, attempted=40)
    assert set(values) == set(ledger.END_TO_END)
    assert values["wall_s"] == 3.0
    assert values["sim_kips"] == 3000.0
    assert values["setup_s"] == 10.5
    assert values["ok_share"] == 1 - 1 / 40


def test_per_layer_adds_the_tracing_overhead():
    values = run.per_layer([_record(3.0), _record(5.0)], untraced_wall=2.0)
    assert values["uarch.core.s"] == 2.0
    assert values["traced_wall_s"] == 4.0
    assert values["trace_overhead"] == 2.0


def test_names_and_units_use_the_allowed_characters():
    names = [w["name"] for w in BENCHMARK["workloads"]] + [
        m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric


def test_layer_metrics_compute_every_declared_layer_metric():
    manifest = {
        "engine": {"jobs": 2},
        "totals": {
            "jobs": 1, "wall_s": 1.0, "batches": 0, "batch_points": 0,
            "retries_used": 0, "cache_hits": 0, "artifacts": {},
        },
    }
    computed = ledger.layer_metrics([], manifest, wall_s=1.0)
    assert set(computed) | {"traced_wall_s", "trace_overhead"} == set(
        ledger.PER_LAYER
    )
    assert computed["experiments.engine.utilization"] == 0.5


# -- output check ---------------------------------------------------------


def test_shipped_references_cover_every_workload_at_the_default_seed():
    refs = ledger.load_references()
    assert refs["seed"] == ledger.DEFAULT_SEED
    for name in ledger.WORKLOADS:
        assert set(refs["workloads"][name]) == set(ledger.OUTPUT_KEYS)
        other = ledger.DEFAULT_SEED + 1
        assert ledger.reference_for(name, other, refs) is None


@pytest.mark.parametrize("key", ledger.OUTPUT_KEYS)
def test_tampered_reference_fails_the_output_check(key):
    refs = ledger.load_references()
    observed = ledger.reference_for("fig8_cold", ledger.DEFAULT_SEED, refs)
    assert ledger.check_output(observed, observed) == []
    tampered = copy.deepcopy(observed)
    tampered[key] = (
        tampered[key][::-1] if isinstance(tampered[key], str)
        else tampered[key] + 1
    )
    problems = ledger.check_output(observed, tampered)
    assert len(problems) == 1 and problems[0].startswith(key)


def test_output_record_digests_the_rendered_text():
    totals = {"simulated_cycles": 7, "committed_instructions": 5}
    a = ledger.output_record("figure", totals)
    assert a["cycles"] == 7 and a["instructions"] == 5
    assert ledger.check_output(ledger.output_record("figure!", totals), a)


def test_warm_guard_names_store_work():
    assert ledger.not_warm({"trace_hits": 4, "prep_hits": 4}) == []
    assert ledger.not_warm(
        {"trace_captures": 1, "prep_builds": 2, "store_puts": 3}
    ) == ["trace_captures=1", "prep_builds=2", "store_puts=3"]


def test_ref_seed_never_selects_the_train_input():
    assert ledger.ref_seed(0) == 1
    with pytest.raises(ValueError):
        ledger.ref_seed(-1)


# -- span arithmetic --------------------------------------------------------


def _span(span_id, parent, start, end, name="x", **extra):
    return {
        "id": span_id, "parent": parent, "name": name, "start": start,
        "end": end, "pid": 1, **extra,
    }


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("root", None, 0.0, 10.0),
        # Two overlapping children, as two pool workers under one map.
        _span("a", "root", 1.0, 4.0),
        _span("b", "root", 3.0, 6.0),
        _span("a1", "a", 2.0, 3.0),
        # A child outside its parent's interval is clipped away.
        _span("late", "b", 5.5, 7.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx(
        {"root": 5.0, "a": 2.0, "b": 2.5, "a1": 1.0, "late": 1.5}
    )


def test_aggregate_sums_calls_self_time_and_extras_by_name():
    tree = [
        _span("m", None, 0.0, 4.0, name="map"),
        _span("j1", "m", 0.0, 3.0, name="job", insts=10),
        _span("j2", "m", 1.0, 2.0, name="job", insts=5),
    ]
    agg = spans.aggregate(tree)
    assert agg["map"]["calls"] == 1
    assert agg["map"]["self_s"] == pytest.approx(1.0)
    assert agg["job"]["calls"] == 2
    assert agg["job"]["self_s"] == pytest.approx(4.0)
    assert agg["job"]["insts"] == 15


def _traced_call(fn):
    fn(2)


def test_forked_worker_spans_come_home_under_the_forking_span(tmp_path):
    tracer = spans.Tracer(tmp_path / "spool")
    leaf = tracer.wrap("leaf", lambda n: n * 2, lambda a, k, r: {"out": r})
    outer = tracer.wrap("outer", lambda: _fork_and_call(leaf))
    outer()
    found = tracer.collect()
    by_name = {s["name"]: s for s in found}
    assert set(by_name) == {"outer", "leaf"}
    assert by_name["leaf"]["parent"] == by_name["outer"]["id"]
    assert by_name["leaf"]["pid"] != by_name["outer"]["pid"]
    assert by_name["leaf"]["out"] == 4


def _fork_and_call(fn):
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_traced_call, args=(fn,))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == 0


def test_install_rebinds_from_imports(monkeypatch, tmp_path):
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    work.__module__ = "fakepkg.home"
    home.work = work
    user.work = work  # as ``from fakepkg.home import work`` leaves it
    for name, mod in (
        ("fakepkg", types.ModuleType("fakepkg")),
        ("fakepkg.home", home),
        ("fakepkg.user", user),
    ):
        monkeypatch.setitem(sys.modules, name, mod)
    tracer = spans.Tracer(tmp_path)
    spans.install(
        tracer, [("work", "fakepkg.home", "work", None)], package="fakepkg"
    )
    assert user.work(1) == 2 and home.work(1) == 2
    assert [s["name"] for s in tracer.collect()] == ["work", "work"]
