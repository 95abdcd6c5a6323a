import math
import random
import statistics
from types import SimpleNamespace

import pytest

import oracles
from joinsample import (
    DRS, AlleyPlus, ComponentPlan, Database, GJSample, Plan, WanderJoin,
    derive_rng, generic_card_est, parse_query_text, sste_trial, sust_trial,
)

# populated when test_acceptance.py is imported; used by the summary hook
ACCEPTANCE = {}


def _pairs(rng, n, au, bu):
    got = set()
    while len(got) < n:
        got.add((rng.randrange(au), rng.randrange(bu)))
    return sorted(got)


def _sym_graph(seed, n_rows, verts):
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < n_rows:
        u, v = rng.randrange(verts), rng.randrange(verts)
        if u != v:
            pairs.add((u, v))
            pairs.add((v, u))
    return sorted(pairs)


def _edge(rel, *attrs):
    return {"relation": rel, "vars": list(attrs)}


def _qjson(attrs, edges, projection=None):
    doc = {"attributes": attrs, "edges": edges}
    if projection:
        doc["projection"] = projection
    import json
    return json.dumps(doc)


def _tri_skew():
    rng = random.Random(71)
    r = sorted(set(_pairs(rng, 12, 6, 6) + [(0, 0), (0, 1), (0, 2)]))
    raw = {
        "R": (("A", "B"), r + [(0, 0), (0, 1)]),  # two duplicate rows
        "S": (("B", "C"), _pairs(rng, 15, 6, 6)),
        "T": (("A", "C"), sorted(set(_pairs(rng, 12, 6, 6) + [(0, 0)]))),
    }
    q = _qjson(["A", "B", "C"],
               [_edge("R", "A", "B"), _edge("S", "B", "C"), _edge("T", "A", "C")])
    return raw, q


def _path3():
    rng = random.Random(72)
    raw = {
        "R": (("A", "B"), _pairs(rng, 12, 5, 5)),
        "S": (("B", "C"), _pairs(rng, 14, 5, 5)),
        "T": (("C", "D"), _pairs(rng, 12, 5, 5)),
    }
    q = _qjson(["A", "B", "C", "D"],
               [_edge("R", "A", "B"), _edge("S", "B", "C"), _edge("T", "C", "D")])
    return raw, q


def _ternary():
    rng = random.Random(73)
    rows_r = set()
    while len(rows_r) < 18:
        rows_r.add((rng.randrange(4), rng.randrange(4), rng.randrange(4)))
    rows_s = set()
    while len(rows_s) < 16:
        rows_s.add((rng.randrange(4), rng.randrange(4), rng.randrange(4)))
    raw = {"R": (("A", "B", "C"), sorted(rows_r)),
           "S": (("B", "C", "D"), sorted(rows_s))}
    q = _qjson(["A", "B", "C", "D"],
               [_edge("R", "A", "B", "C"), _edge("S", "B", "C", "D")])
    return raw, q


def _cycle4():
    rng = random.Random(74)
    raw = {}
    names = [("R1", "A", "B"), ("R2", "B", "C"), ("R3", "C", "D"), ("R4", "D", "A")]
    for name, x, y in names:
        raw[name] = ((x, y), sorted(set(_pairs(rng, 11, 5, 5) + [(0, 0)])))
    q = _qjson(["A", "B", "C", "D"], [_edge(n, x, y) for n, x, y in names])
    return raw, q


def _skew_pair():
    rows = [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3)]
    raw = {"R": (("A", "B"), rows), "T": (("A", "C"), rows)}
    q = _qjson(["A", "B", "C"], [_edge("R", "A", "B"), _edge("T", "A", "C")])
    return raw, q


def _selfjoin_tri():
    g = sorted({(u, v) for u, v in
                [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0),
                 (2, 3), (3, 2), (3, 4), (4, 3), (0, 3), (3, 0)]})
    raw = {"G": (("X", "Y"), g)}
    q = _qjson(["A", "B", "C"],
               [_edge("G", "A", "B"), _edge("G", "B", "C"), _edge("G", "A", "C")])
    return raw, q


def _empty_tri():
    raw = {"R": (("A", "B"), [(0, 1), (1, 1)]),
           "S": (("B", "C"), []),
           "T": (("A", "C"), [(0, 0)])}
    q = _qjson(["A", "B", "C"],
               [_edge("R", "A", "B"), _edge("S", "B", "C"), _edge("T", "A", "C")])
    return raw, q


_SYM = _sym_graph(2, 32, 7)


def _sym_tri():
    raw = {"E": (("X", "Y"), _SYM)}
    q = _qjson(["A", "B", "C"],
               [_edge("E", "A", "B"), _edge("E", "B", "C"), _edge("E", "A", "C")])
    return raw, q


def _sym_5cyc():
    raw = {"E": (("X", "Y"), _SYM)}
    q = _qjson(["A", "B", "C", "D", "F"],
               [_edge("E", "A", "B"), _edge("E", "B", "C"), _edge("E", "C", "D"),
                _edge("E", "D", "F"), _edge("E", "A", "F")])
    return raw, q


def _star_rels(rng):
    return {
        "F1": (("H", "U"), _pairs(rng, 7, 4, 3)),
        "F2": (("H", "V"), _pairs(rng, 6, 4, 3)),
        "F3": (("H", "W"), _pairs(rng, 6, 4, 3)),
    }


def _star3():
    raw = _star_rels(random.Random(75))
    q = _qjson(["H", "U", "V", "W"],
               [_edge("F1", "H", "U"), _edge("F2", "H", "V"), _edge("F3", "H", "W")])
    return raw, q


def _star2():
    raw = _star_rels(random.Random(76))
    del raw["F3"]
    q = _qjson(["H", "U", "V"], [_edge("F1", "H", "U"), _edge("F2", "H", "V")])
    return raw, q


def _sym_mixed():
    raw = {"E": (("X", "Y"), _SYM)}
    raw.update(_star_rels(random.Random(77)))
    del raw["F3"]
    q = _qjson(["A", "B", "C", "H", "U", "V"],
               [_edge("E", "A", "B"), _edge("E", "B", "C"), _edge("E", "A", "C"),
                _edge("F1", "H", "U"), _edge("F2", "H", "V")])
    return raw, q


def _k4():
    raw = {"E": (("X", "Y"), _SYM)}
    q = _qjson(["A", "B", "C", "D"],
               [_edge("E", "A", "B"), _edge("E", "A", "C"), _edge("E", "A", "D"),
                _edge("E", "B", "C"), _edge("E", "B", "D"), _edge("E", "C", "D")])
    return raw, q


def _proj_threecomp():
    rng = random.Random(5)
    raw = {
        "R": (("A", "B"), _pairs(rng, 10, 4, 4)),
        "S": (("B", "C"), _pairs(rng, 12, 4, 5)),
        "T": (("D", "E"), _pairs(rng, 6, 3, 3)),
    }
    q = _qjson(["A", "B", "C", "D", "E"],
               [_edge("R", "A", "B"), _edge("S", "B", "C"), _edge("T", "D", "E")],
               projection=["A", "C", "D"])
    return raw, q


def _proj_path():
    raw, _ = _path3()
    q = _qjson(["A", "B", "C", "D"],
               [_edge("R", "A", "B"), _edge("S", "B", "C"), _edge("T", "C", "D")],
               projection=["A", "C"])
    return raw, q


def _proj_fulltri():
    raw, _ = _tri_skew()
    q = _qjson(["A", "B", "C"],
               [_edge("R", "A", "B"), _edge("S", "B", "C"), _edge("T", "A", "C")],
               projection=["A", "B", "C"])
    return raw, q


def _proj_inside():
    rng = random.Random(78)
    raw = {"R": (("A", "B"), _pairs(rng, 10, 4, 4)),
           "S": (("B", "C"), _pairs(rng, 8, 4, 4))}
    q = _qjson(["A", "B", "C"], [_edge("R", "A", "B"), _edge("S", "B", "C")],
               projection=["A", "B"])
    return raw, q


def _proj_star():
    raw, _ = _star3()
    q = _qjson(["H", "U", "V", "W"],
               [_edge("F1", "H", "U"), _edge("F2", "H", "V"), _edge("F3", "H", "W")],
               projection=["U", "V"])
    return raw, q


CORPUS = {
    "tri-skew": _tri_skew,
    "path3": _path3,
    "ternary": _ternary,
    "cycle4": _cycle4,
    "skew-pair": _skew_pair,
    "selfjoin-tri": _selfjoin_tri,
    "empty-tri": _empty_tri,
    "sym-tri": _sym_tri,
    "sym-5cyc": _sym_5cyc,
    "star3": _star3,
    "star2": _star2,
    "sym-mixed": _sym_mixed,
    "k4": _k4,
    "proj-threecomp": _proj_threecomp,
    "proj-path": _proj_path,
    "proj-fulltri": _proj_fulltri,
    "proj-inside": _proj_inside,
    "proj-star": _proj_star,
}


def build(name):
    """Fresh Database + parsed query + the raw data for the oracles."""
    raw, qtext = CORPUS[name]()
    db = Database()
    for rel, (schema, rows) in raw.items():
        db.load(rel, schema, rows)
    return db, parse_query_text(qtext), raw


def raw_edges(query):
    return [(e.relation, e.attrs) for e in query.hypergraph.edges]


_oracle_cache = {}


def oracle(name):
    if name not in _oracle_cache:
        db, query, raw = build(name)
        attrs, bag = oracles.nested_loop_join(raw, raw_edges(query))
        distinct = set(bag)
        _oracle_cache[name] = SimpleNamespace(
            attrs=attrs, bag=bag, distinct=distinct, out=len(distinct),
            bag_out=len(bag))
    return _oracle_cache[name]


def decoded_answers(db, rows):
    return {tuple(db.decode_tuple(r)) for r in rows}


_STRATEGIES = {
    "wander": lambda: WanderJoin(),
    "alley-0.25": lambda: AlleyPlus(b=0.25),
    "alley-0.5": lambda: AlleyPlus(b=0.5),
    "alley-1.0": lambda: AlleyPlus(b=1.0),
    "gj": lambda: GJSample(),
    "drs": lambda: DRS(),
    "drs-tie": lambda: DRS(boost="tie"),
    "drs-any": lambda: DRS(boost="any-edge"),
}


def make_trial(db, query, key):
    hq = query.hypergraph
    if key in ("sste", "sust"):
        cp = ComponentPlan(db, hq)
        fn = sste_trial if key == "sste" else sust_trial
        return lambda rng: fn(cp, rng)
    if key == "drs-skip":
        plan, st = Plan(db, hq, skip_nonjoin=True), DRS()
    else:
        plan, st = Plan(db, hq), _STRATEGIES[key]()
    return lambda rng: generic_card_est(plan, st, rng=rng)


_mc_cache = {}


def mc_stats(fix, key, n, groups=100):
    """Cached Monte-Carlo batch: mean/var plus per-group stats.

    Deterministic per (fixture, strategy, trial index), so overlapping
    requests reuse one run.
    """
    ck = (fix, key, n)
    if ck in _mc_cache:
        return _mc_cache[ck]
    db, query, _ = build(fix)
    trial = make_trial(db, query, key)
    gsize = n // groups
    n_eff = gsize * groups
    gmeans, gvars = [], []
    total = total_sq = 0.0
    i = 0
    for _ in range(groups):
        s = ss = 0.0
        for _ in range(gsize):
            v = trial(derive_rng("mc", f"{fix}/{key}", i))
            s += v
            ss += v * v
            i += 1
        m = s / gsize
        gmeans.append(m)
        gvars.append((ss - gsize * m * m) / (gsize - 1))
        total += s
        total_sq += ss
    mean = total / n_eff
    var = (total_sq - n_eff * mean * mean) / (n_eff - 1)
    res = SimpleNamespace(
        n=n_eff, mean=mean, var=var,
        se=math.sqrt(max(var, 0.0) / n_eff),
        gmeans=gmeans, gvars=gvars,
        se_var=statistics.stdev(gvars) / math.sqrt(groups))
    _mc_cache[ck] = res
    return res


@pytest.fixture(scope="session")
def mc():
    return mc_stats


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    passed = {r.nodeid for r in terminalreporter.stats.get("passed", [])}
    failed = {r.nodeid for r in terminalreporter.stats.get("failed", [])}
    lines = []
    for num in sorted(ACCEPTANCE):
        frag = f"test_criterion_{num:02d}"
        if any(frag in nid for nid in failed):
            state = "FAIL"
        elif any(frag in nid for nid in passed):
            state = "PASS"
        else:
            continue
        lines.append(f"[{state}] criterion {num}: {ACCEPTANCE[num]}")
    if lines:
        terminalreporter.write_line("")
        for ln in lines:
            terminalreporter.write_line(ln)
