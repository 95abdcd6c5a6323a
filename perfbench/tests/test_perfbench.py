"""Tests of the benchmark itself: generators, oracles, failure accounting
and tracing. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import joinsample as js  # noqa: E402
import pytest  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {"tri-dense": {"vertices": 12, "rows": 40},
        "cycle4-sparse": {"vertices": 14, "rows": 36},
        "path-skew": {"rows": 60, "ad_values": 12, "bc_values": 6}}


def _brute(workload):
    db = js.Database()
    for name, (schema, rows) in workload.relations.items():
        db.load(name, schema, rows)
    hq = js.parse_query_text(json.dumps(workload.query)).hypergraph
    _, rows = js.brute_force_join(db, hq)
    return [db.decode_tuple(r) for r in rows]


def _bench(tmp_path, name, seed=3):
    workload = wl.GENERATORS[name](seed, **TINY[name])
    rel_paths, query_path = wl.write_inputs(workload, tmp_path)
    bench = harness.Bench(workload, seed, rel_paths, query_path)
    bench.op_setup(0)
    return bench


def test_generators_are_deterministic_in_the_seed():
    for gen in wl.GENERATORS.values():
        a, b = gen(7), gen(7)
        assert a.relations == b.relations and a.query == b.query
        assert gen(8).relations != a.relations


def test_written_inputs_load_back_to_the_generated_rows(tmp_path):
    workload = wl.path_skew(5, **TINY["path-skew"])
    rel_paths, query_path = wl.write_inputs(workload, tmp_path)
    db = js.Database()
    for path in rel_paths:
        rel = js.load_relation_file(db, path)
        schema, rows = workload.relations[rel.name]
        assert rel.schema == schema
        assert [db.decode_tuple(t) for t in rel.tuples] == rows
    assert js.load_query_file(query_path).projection == ("A", "D")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["tri-dense", "cycle4-sparse"])
def test_cycle_oracles_match_brute_force_join(seed, name):
    workload = wl.GENERATORS[name](seed, **TINY[name])
    oracle = wl.CycleOracle(workload.relations["E"][1], workload.query)
    truth = set(_brute(workload))               # tuples in sorted-attribute order
    assert oracle.out == len(truth)
    domain = range(TINY[name]["vertices"])
    for values in itertools.product(domain, repeat=len(oracle.attrs)):
        binding = dict(zip(oracle.attrs, values))
        assert oracle.is_answer(binding) == (values in truth)


@pytest.mark.parametrize("seed", range(4))
def test_path_oracle_matches_brute_force_join(seed):
    workload = wl.path_skew(seed, **TINY["path-skew"])
    bag = _brute(workload)                      # (A, B, C, D) rows
    rels = {n: rows for n, (_, rows) in workload.relations.items()}
    oracle = wl.PathOracle(rels["R"], rels["S"], rels["T"])
    assert oracle.bag_size == len(bag)
    assert oracle.distinct == len(set(bag))
    pairs = {(a, d) for a, _, _, d in bag}
    assert oracle.projection_count == len(pairs)
    for a in range(TINY["path-skew"]["ad_values"]):
        for d in range(TINY["path-skew"]["ad_values"]):
            assert oracle.reachable(a, d) == ((a, d) in pairs)
    assert all(oracle.is_answer(*row) for row in bag)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_operation_passes_its_checks_on_a_small_instance(tmp_path, name):
    bench = _bench(tmp_path, name)
    for op in harness.OPS[name]:
        if name == "cycle4-sparse" and op.metric == "ghd_s":
            continue  # the 4-cycle decomposition search alone takes ~40 s
        outcome = op.batch(bench, 0)
        assert outcome.seconds > 0
    bench.check_samplers(attempts=50)
    assert bench.attempted > 0
    assert (bench.failed, bench.errors) == (0, [])


def test_a_planted_wrong_join_answer_is_a_failed_operation(tmp_path, monkeypatch):
    bench = _bench(tmp_path, "tri-dense")
    bench.op_join(0)
    assert (bench.attempted, bench.failed) == (1, 0)
    real = js.generic_join
    monkeypatch.setattr(js, "generic_join", lambda db, q: set(sorted(real(db, q))[1:]))
    bench.op_join(1)
    assert (bench.attempted, bench.failed) == (2, 1)

    def one_swapped(db, q):
        answers = sorted(real(db, q))
        v = answers[0][0]
        return set(answers[1:]) | {(v, v, v)}   # E has no loops: not a triangle

    monkeypatch.setattr(js, "generic_join", one_swapped)
    bench.op_join(2)
    assert (bench.attempted, bench.failed) == (3, 2)


def test_a_planted_wrong_weight_total_is_a_failed_operation(tmp_path, monkeypatch):
    bench = _bench(tmp_path, "path-skew")
    real = js.preprocess_weights

    def off_by_one(db, query):
        widx = real(db, query)
        widx.total += 1
        return widx

    monkeypatch.setattr(js, "preprocess_weights", off_by_one)
    bench.op_weights(0)
    assert (bench.attempted, bench.failed) == (1, 1)


def test_planted_negative_trial_estimates_are_failed_operations(tmp_path, monkeypatch):
    bench = _bench(tmp_path, "tri-dense")
    monkeypatch.setattr(js, "generic_card_est", lambda *a, **k: -1.0)
    bench.op_trials(0, n=7, name="drs")
    assert (bench.attempted, bench.failed) == (7, 7)


def test_run_ops_keeps_each_units_fastest_repeat():
    calls = []

    def fake(metric, unit, min_batches, share, units, times, successes=1):
        it = iter(times)

        def batch(bench, i):
            calls.append((metric, i))
            return harness.Outcome(next(it), successes)
        return harness.Op(metric, unit, batch, min_batches, share, units)

    ops = [fake("setup_s", "s", 3, 1.0, 1, [0.3, 0.1, 0.2]),
           fake("ghd_s", "s", 1, 0.0, 1, [5.0]),
           fake("trials_per_s.drs", "1/s", 4, 1.0, 2, [0.4, 0.2, 0.1, 0.3], successes=10)]
    bench = types.SimpleNamespace(op_setup=lambda i: None)
    values, batches = harness.run_ops(bench, ops, seconds=0)
    assert batches == {"setup_s": 3, "ghd_s": 1, "trials_per_s.drs": 4}
    assert values["setup_s"] == 0.1 and values["ghd_s"] == 5.0
    # units alternate: unit 0 took 0.4 and 0.1, unit 1 took 0.2 and 0.3
    assert [i for m, i in calls if m == "trials_per_s.drs"] == [0, 1, 0, 1]
    assert values["trials_per_s.drs"] == pytest.approx(20 / (0.1 + 0.2))
    # the fixed op runs once every shared op has run half its minimum
    before = [m for m, _ in calls[:calls.index(("ghd_s", 0))]]
    assert before.count("setup_s") >= 2 and before.count("trials_per_s.drs") == 2
    assert calls[-1][0] == "trials_per_s.drs"


def _bindings():
    names = {}
    for mod in tracing._modules([harness]):
        for key, value in vars(mod).items():
            names[(mod.__name__, key)] = value
    for owner, attr, *_ in tracing._targets(tracing.Tracer()):
        if isinstance(owner, type):
            names[(owner.__qualname__, attr)] = getattr(owner, attr)
    return names


def test_tracer_patches_every_importer_and_restores_the_originals():
    from joinsample import ghd, queries
    before = _bindings()
    original_cover = queries.fractional_edge_cover
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[harness])
    try:
        assert ghd.fractional_edge_cover is queries.fractional_edge_cover
        assert ghd.fractional_edge_cover is not original_cover
        assert harness.edge_index is queries.edge_index
        assert js.TrieIndex.__init__ is not before[("TrieIndex", "__init__")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_time_is_span_time_minus_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "relations.inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "wcoj.outer")
    outer()
    assert tracer.span_count() == 4
    assert list(tracer.spans[3::4]) == [-1, 0, 0, 0]   # parents
    stats = tracer.stats()
    calls_o, total_o, self_o = stats.stat("wcoj.outer")
    calls_i, total_i, self_i = stats.stat("relations.inner")
    assert (calls_o, calls_i) == (1, 3) and total_i == self_i
    assert round((self_o + total_i) * 1e9) == round(total_o * 1e9)
    assert stats.layer_self_ns["wcoj"] == round(self_o * 1e9)
    assert len(stats.durations[stats.ids["relations.inner"]]) == 3
    assert tracer.stats(end=1).stat("relations.inner")[0] == 0


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.E2E]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.E2E]
    layer = tracing.per_layer_metrics(tracing.Tracer(), 0, 1.0, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert [m["unit"] for m in spec["per_layer"]] == [tracing.unit_of(n) for n in layer]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in run.WORKLOADS:
        measured = {op.metric for op in harness.OPS[name]} | {"peak_rss_mb"}
        assert {n for n, _ in run.E2E} <= measured
