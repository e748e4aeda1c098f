"""Tests of the benchmark itself: every check rejects a planted wrong answer,
the oracles agree with brute force, and one round of every workload passes.

Run from the root of the repository:  python3 -m pytest -q benchmark
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_groupinv()

import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

Z = lambda k: ("atom", "Z", k)  # noqa: E731
ZMOD = lambda k: ("atom", "Zmod", k)  # noqa: E731
F = lambda n: ("atom", "F", n)  # noqa: E731
BS = lambda n: ("atom", "BS", n)  # noqa: E731


def real_doc(kind, node):
    answer = wl.answer_rinf if kind == "rinf" else wl.answer_invariants
    return json.loads(answer(orc.render(node)))


# ---------------------------------------------------------------------------
# planted wrong answers


def test_verdict_checks_reject_planted_answers():
    node = ("x", [BS(2), F(3)])
    doc = real_doc("rinf", node)
    assert orc.check_verdict(node, doc, orc.RINFINITY) is None
    assert orc.check_verdict(node, doc, orc.INDEX_TWO) is not None
    assert orc.check_verdict(BS(3), real_doc("rinf", BS(3)), orc.RINFINITY, "ThmMain1") is None
    assert orc.check_verdict(BS(3), real_doc("rinf", BS(3)), orc.RINFINITY, "ThmGK2") is not None

    late = json.loads(json.dumps(doc))
    late["trace"][0]["premises"] = [late["trace"][-1]["id"]]
    assert "before it exists" in orc.check_verdict(node, late)

    abelian = ("x", [Z(2), ZMOD(3)])
    planted = real_doc("rinf", abelian)
    assert orc.check_verdict(abelian, planted) is None
    planted["conclusion"] = orc.RINFINITY
    assert "free abelian by finite" in orc.check_verdict(abelian, planted)

    planted = real_doc("rinf", ("x", [F(2), Z(1)]))
    planted["conclusion"] = "NoSuchVerdict"
    assert orc.check_verdict(("x", [F(2), Z(1)]), planted) is not None


def test_permutation_check_rejects_a_changed_conclusion():
    node = ("x", [F(2), Z(1)])
    perm = ("x", [Z(1), F(2)])
    check = wl._verdict_check(node, permutation=perm)
    doc = real_doc("rinf", node)
    assert check(doc) is None
    doc["conclusion"] = "Unknown"
    assert "permutation" in check(doc)


def test_invariants_checks_reject_planted_answers():
    node = ("x", [F(2), Z(1)])
    doc = real_doc("invariants", node)
    assert orc.check_invariants(node, doc) is None
    wrong_rank = dict(doc, hom_rank=doc["hom_rank"] + 1)
    assert "hom_rank" in orc.check_invariants(node, wrong_rank)
    # two survivors that are not antipodal
    bent = json.loads(json.dumps(doc))
    bent["omega"]["atoms"] = [["empty", {"points": [[1]]}], [{"points": [[1, 0]]}, "empty"]]
    assert "antipodal" in orc.check_invariants(node, bent)
    bent["omega_cardinality"] = "3"
    assert orc.check_invariants(node, bent) is not None


def test_hand_hom_rank_table():
    node = ("*", [("x", [Z(3), F(2)]), ("atom", "Thompson", 0), ("atom", "T", 5), ZMOD(4),
                  ("atom", "L", 3), BS(2), ("atom", "Klein", 0), ("atom", "B", 4)])
    assert orc.hand_hom_rank(node) == 3 + 2 + 2 + 5 + 0 + 1 + 1 + 1 + 1
    assert real_doc("invariants", node)["hom_rank"] == orc.hand_hom_rank(node)


def test_probe_checks_reject_planted_answers():
    assert orc.check_ball("Z", 2, 5, orc.ball_order("Z", 2, 5), 0) is None
    assert orc.ball_order("Z", 2, 5) == 2 * 5 * 5 + 2 * 5 + 1
    assert orc.ball_order("F", 2, 8) == 13121
    assert orc.check_ball("Z", 3, 6, orc.ball_order("Z", 3, 6) + 1, 0) is not None
    assert orc.check_ball("F", 2, 4, 161, 160) is None
    assert orc.check_ball("F", 2, 4, 161, 161) is not None
    assert orc.check_ball("F", 2, 4, 160, 159) is not None
    assert orc.check_probe_evidence("F", (1, 0), "SupportsMembership") is not None
    assert orc.check_probe_evidence("Z", (1, 1), "SupportsNonMembership") is not None
    assert orc.check_probe_evidence("Klein", (-1,), "SupportsNonMembership") is not None
    assert orc.check_probe_evidence("BS", (-1,), "SupportsMembership") is not None
    assert orc.check_probe_evidence("BS", (1,), "SupportsNonMembership") is not None
    assert orc.check_probe_evidence("BS", (1,), "Inconclusive") is None
    assert orc.check_probe_evidence("F", (0, 1), "SupportsNonMembership") is None


def test_probe_check_on_a_real_ball():
    out = wl.run_probe("F(2)", 4, (1, 0), wl.MODES[0])
    check = wl._probe_check("F(2)", 4, (1, 0))
    assert check(out) is None
    assert check((out[0] + 1, out[1], out[2])) is not None
    report = json.loads(out[2])
    report["evidence"] = "SupportsMembership"
    assert check((out[0], out[1], json.dumps(report))) is not None


def test_reidemeister_oracles():
    assert orc.block_reidemeister([[-1]], [], []) == 2
    assert orc.block_reidemeister([[1]], [], []) == orc.INFINITE
    assert orc.block_reidemeister([[-1]], [2], [1]) == 4
    assert orc.block_reidemeister(wl._P, [2], [1]) == 2 * 62001
    assert orc.fraction_det([[2, 1], [1, 1]]) == 1
    seq = wl.iterates([[2, 1], [1, 1]], [3], [2], 4)
    values = wl.run_zeta(seq, [3])
    check = wl._zeta_check(seq, [3])
    assert check(values) is None
    assert check(values[:-1] + [values[-1] + 1]) is not None


def _brute_twisted_classes(table, perm):
    """Orbits of g -> h g phi(h)^-1, by closure, for small tables."""
    n = len(table)
    inv = [next(y for y in range(n) if table[x][y] == 0) for x in range(n)]
    seen, count = set(), 0
    for g in range(n):
        if g in seen:
            continue
        count += 1
        seen.update(table[table[h][g]][inv[perm[h]]] for h in range(n))
    return count


def test_table_oracles_match_brute_force():
    for n, u in ((12, 5), (9, 4), (10, 1)):
        assert orc.cyclic_classes(n, u) == _brute_twisted_classes(
            orc.cyclic_table(n), [(u * x) % n for x in range(n)])
    for m in (3, 4, 5, 6):
        assert orc.dihedral_classes(m) == _brute_twisted_classes(
            orc.dihedral_table(m), list(range(2 * m)))
    rng = random.Random(5)
    for order in (12, 18, 24, 30):
        table, perm, expected = wl.random_group_table(rng, order)
        assert _brute_twisted_classes(table, perm) == expected
        doc = json.loads(wl.run_table(table, perm))
        assert orc.check_table_answer(expected, doc) is None
        assert orc.check_table_answer(expected + 1, doc) is not None
        assert orc.check_table_answer(expected, dict(doc, representatives=doc["representatives"][1:])) is not None


def test_cli_checks_reject_contract_breaches(tmp_path):
    cli = wl.Cli(run.SRC, tmp_path)
    op = cli._op("table", [], lambda doc: None)
    good = json.dumps({"version": "0.1.0", "reidemeister": 1})
    assert op.check((good, "")) is None
    assert "stderr" in op.check((good, "Traceback"))
    assert "JSON" in op.check((good + good, ""))
    assert "version" in op.check((json.dumps({"reidemeister": 1}), ""))


# ---------------------------------------------------------------------------
# workloads end to end, one round each


@pytest.mark.parametrize("name", ["verdicts", "probe", "twisted", "cli"])
def test_one_round_passes(name, tmp_path):
    workload = wl.make(name, run.SRC, tmp_path)
    rng = random.Random(11)
    ops = list(workload.make_round(random.Random(11)))
    counted = sum(op.counted_failure for op in ops)
    phase = run.run_phase(workload, rng, 0, 1)
    assert phase.problems == []
    assert dict(phase.unexpected_failures) == {}
    assert phase.attempted == len(ops)
    assert phase.failed == counted


def test_scaled_times_follow_the_local_gauge_reading():
    phase = run.Phase()
    # the machine runs at the reference speed, then at half of it
    phase.readings = [run.GAUGE_REF_S] * 4 + [2 * run.GAUGE_REF_S] * 8
    phase.busy = 0.52
    phase.ops = [(0.010, True, 0), (0.010, True, 11), (0.5, False, 11)]
    assert [round(t, 9) for t, _ in phase.scaled()] == [0.01, 0.005, 0.25]
    assert phase.completed_times() == [0.005, 0.01]
    assert phase.completed_times(scaled=False) == [0.01, 0.01]
    assert phase.throughput(scaled=False) == 2 / 0.52
    assert round(phase.throughput(), 6) == round(2 / 0.265, 6)
    assert phase.p50_ms(scaled=False) == 10.0


def test_rounds_depend_only_on_the_seed(tmp_path):
    def kinds(seed):
        return [(op.kind, op.counted_failure)
                for op in wl.make("twisted", run.SRC, tmp_path).make_round(random.Random(seed))]

    assert kinds(3) == kinds(3)
    assert sorted(kinds(3)) == sorted(kinds(4))


def test_traced_run_reports_every_layer(tmp_path):
    workload = wl.make("verdicts", run.SRC, tmp_path)
    metrics, phases, tracer = run.traced_metrics(workload, 2, 0)
    names = [m[0] for m in LAYER_METRICS]
    assert all(n in metrics for n in names)
    assert metrics["rinf.decide_calls"]["value"] > 0
    assert metrics["catalog.lookup_calls"]["value"] > metrics["rinf.decide_calls"]["value"]
    assert 0 < metrics["catalog.lookup_distinct_ratio"]["value"] <= 1
    assert metrics["ballprobe.enumerate_ms"]["value"] == 0
    assert metrics["overhead.slowdown"]["value"] > 0
    assert phases[0].attempted == phases[1].attempted
    ids = {s[0] for s in tracer.spans}
    assert all(parent == -1 or parent in ids for _, parent, *_ in tracer.spans)


def test_tracer_wraps_imported_copies_and_restores_them():
    import groupinv
    import groupinv.catalog
    import groupinv.rinf
    from groupinv.unionfind import UnionFind

    original = groupinv.catalog.lookup_invariants
    tracer = Tracer()
    tracer.install()
    try:
        assert groupinv.rinf.lookup_invariants is groupinv.catalog.lookup_invariants
        assert groupinv.lookup_invariants is not original
        tracer.begin_op(1)
        groupinv.decide(groupinv.parse_group_expr("BS(1,2) x F(3)"))
        uf = UnionFind(4)
        uf.union(0, 1)
        tracer.finish()
    finally:
        tracer.uninstall()
    assert groupinv.rinf.lookup_invariants is original
    assert groupinv.lookup_invariants is original
    assert tracer.calls["rinf.decide"] == 1 and tracer.calls["catalog.lookup"] > 1
    assert tracer.calls["unionfind.union"] == 1 and tracer.calls["unionfind.find"] == 2
    assert all(v >= 0 for v in tracer.self_s.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "verdicts",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["verdicts", "probe", "twisted", "cli"]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "throughput_ops_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"}
    layer = [m["name"] for m in spec["per_layer"]]
    assert layer[:len(LAYER_METRICS)] == [m[0] for m in LAYER_METRICS]
    assert [(m[1], m[2]) for m in LAYER_METRICS] == [
        (m["unit"], m["better"]) for m in spec["per_layer"][:len(LAYER_METRICS)]]
    overhead = set(itertools.chain.from_iterable(
        ("overhead.%s_throughput_ops_s" % k, "overhead.%s_latency_p50_ms" % k)
        for k in ("untraced", "traced"))) | {"overhead.slowdown"}
    assert set(layer[len(LAYER_METRICS):]) == overhead
