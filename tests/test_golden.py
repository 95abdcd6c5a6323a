"""Seeded outputs pinned bit for bit.

Every value below was recorded from the code and must not move when the
code is restructured: a changed value means some seeded trial now draws a
different row, or a mean is summed in a different order. Floats are compared
through repr, so a change in the last bit fails. Fixtures are small and trial
counts low so the file stays fast.
"""

import json

from conftest import build
from joinsample import (
    DRS, GHD, AlleyPlus, ComponentPlan, GJSample, Plan, WanderJoin, derive_rng,
    estimate_projection_count, estimate_with_guarantee, generic_card_est,
    ghd_card_est, sste_estimate, sust_estimate,
)
from joinsample.cli import main
from test_cli import _fixture_inputs

_STRATEGIES = {
    "wander": lambda: WanderJoin(),
    "alley": lambda: AlleyPlus(b=0.5),
    "gj": lambda: GJSample(),
    "drs": lambda: DRS(),
    "drs-tie": lambda: DRS(boost="tie"),
}


def _mean(plan, strategy, n):
    acc = 0.0
    for i in range(n):
        acc += generic_card_est(plan, strategy, rng=derive_rng("golden", "mean", i))
    return repr(acc / n)


def _report(rep):
    return (repr(rep.estimate), rep.trials, rep.stages, rep.successes, rep.ops)


def test_generic_card_est_means():
    got = {}
    for fix in ("tri-skew", "selfjoin-tri", "path3", "ternary"):
        db, query, _ = build(fix)
        plan = Plan(db, query.hypergraph)
        for key, make in _STRATEGIES.items():
            got[f"{fix}/{key}"] = _mean(plan, make(), 40)
        skip = Plan(db, query.hypergraph, skip_nonjoin=True)
        got[f"{fix}/drs-skip"] = _mean(skip, DRS(), 40)
    assert got == MEANS


def test_geometric_reports():
    got = {}
    for fix, key in (("skew-pair", "gj"), ("skew-pair", "drs"),
                     ("skew-pair", "wander"), ("path3", "gj")):
        for median in (False, True):
            db, query, _ = build(fix)
            plan = Plan(db, query.hypergraph)
            rep = estimate_with_guarantee(plan, _STRATEGIES[key](), 0.5, 0.5,
                                          seed=3, median=median)
            got[f"{fix}/{key}/median={median}"] = _report(rep)
    assert got == GEOMETRIC


def test_success_count_reports():
    got = {}
    for fix, key in (("skew-pair", "gj"), ("skew-pair", "drs"), ("tri-skew", "drs"),
                     ("empty-tri", "drs")):
        db, query, _ = build(fix)
        plan = Plan(db, query.hypergraph)
        rep = estimate_with_guarantee(plan, _STRATEGIES[key](), 0.5, 0.1, seed=4,
                                      mode="success-count", c=8)
        got[f"{fix}/{key}"] = _report(rep)
    assert got == SUCCESS_COUNT


def test_component_estimates():
    got = {}
    for fix in ("sym-tri", "star3", "sym-mixed"):
        db, query, _ = build(fix)
        cp = ComponentPlan(db, query.hypergraph)
        got[f"{fix}/sste"] = repr(sste_estimate(cp, 100, seed=5))
        got[f"{fix}/sust"] = repr(sust_estimate(cp, 100, seed=5))
    assert got == COMPONENTS


def test_projection_count_reports():
    got = {}
    for fix in ("proj-path", "proj-threecomp"):
        db, query, _ = build(fix)
        # two calls on one database: the second finds the projections cached
        for call in (1, 2):
            rep = estimate_projection_count(db, query, c=6, seed=6)
            got[f"{fix}/{call}"] = _report(rep)
    assert got == PROJECTION


def test_ghd_card_est_on_cycle():
    db, query, _ = build("cycle4")
    ghd = GHD([frozenset("ABC"), frozenset("ACD")], [(0, 1)])
    got = repr(ghd_card_est(db, query.hypergraph, ghd=ghd, budget=3, seed=7))
    assert got == GHD_CYCLE4


def _cli_json(tmp_path, capsys, fix, argv):
    dbdir, qpath = _fixture_inputs(tmp_path, fix)
    assert main([argv[0], dbdir, qpath, "--json", *argv[1:]]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["query"]  # the temporary path
    return doc


_CLI_RUNS = {
    "estimate/drs": ("skew-pair", ["estimate", "--seed", "8"]),
    "estimate/alley-median": ("tri-skew", ["estimate", "--strategy", "alley",
                                           "--median", "--delta", "0.5"]),
    "estimate/drs-skip-tie": ("path3", ["estimate", "--skip-nonjoin", "--boost", "tie",
                                        "--delta", "0.5"]),
    "estimate/gj-sc": ("skew-pair", ["estimate", "--strategy", "gj",
                                     "--mode", "success-count", "--c", "8"]),
    "estimate/projection": ("proj-path", ["estimate", "--c", "6", "--seed", "9"]),
    "sample/drs": ("skew-pair", ["sample", "-n", "8", "--seed", "10"]),
    "sample/gj": ("path3", ["sample", "--strategy", "gj", "-n", "8"]),
    "sample/exact": ("path3", ["sample", "--strategy", "exact", "-n", "5"]),
    "sample/sust": ("sym-tri", ["sample", "--strategy", "sust", "-n", "30"]),
    "sample/projection": ("proj-path", ["sample", "-n", "8"]),
    "bench/all": ("sym-tri", ["bench", "--strategies", "wander,alley,gj,drs,sste",
                              "--trials", "40", "--seed", "11"]),
}


def test_cli_json_outputs(tmp_path, capsys):
    got = {}
    for i, (key, (fix, argv)) in enumerate(_CLI_RUNS.items()):
        run_dir = tmp_path / str(i)
        run_dir.mkdir()
        got[key] = _cli_json(run_dir, capsys, fix, argv)
    assert got == CLI


# --- recorded values ---

MEANS = {'tri-skew/wander': '7.5',
 'tri-skew/alley': '6.8',
 'tri-skew/gj': '7.794228634059946',
 'tri-skew/drs': '10.39230484541326',
 'tri-skew/drs-tie': '10.39230484541326',
 'tri-skew/drs-skip': '10.39230484541326',
 'selfjoin-tri/wander': '9.3',
 'selfjoin-tri/alley': '11.83333333333333',
 'selfjoin-tri/gj': '7.274613391789285',
 'selfjoin-tri/drs': '16.62768775266122',
 'selfjoin-tri/drs-tie': '8.31384387633061',
 'selfjoin-tri/drs-skip': '16.62768775266122',
 'path3/wander': '64.5',
 'path3/alley': '61.322916666666664',
 'path3/gj': '57.6',
 'path3/drs': '86.4',
 'path3/drs-tie': '93.6',
 'path3/drs-skip': '43.2',
 'ternary/wander': '18.9',
 'ternary/alley': '16.3',
 'ternary/gj': '28.79999999999999',
 'ternary/drs': '0.0',
 'ternary/drs-tie': '0.0',
 'ternary/drs-skip': '28.79999999999999'}

GEOMETRIC = {'skew-pair/gj/median=False': ('11.197916666666666', 168, 3, None, 3652),
 'skew-pair/gj/median=True': ('12.5', 72, 2, None, 1572),
 'skew-pair/drs/median=False': ('15.625', 144, 2, None, 1272),
 'skew-pair/drs/median=True': ('12.5', 144, 2, None, 1272),
 'skew-pair/wander/median=False': ('11.458333333333334', 168, 3, None, 1176),
 'skew-pair/wander/median=True': ('12.5', 72, 2, None, 504),
 'path3/gj/median=False': ('68.625', 224, 3, None, 8688),
 'path3/gj/median=True': ('72.0', 224, 3, None, 8688)}

SUCCESS_COUNT = {'skew-pair/gj': ('12.499999999999998', 16, 0, 8, 358),
 'skew-pair/drs': ('6.557377049180327', 61, 0, 8, 512),
 'tri-skew/drs': ('9.474465955932322', 351, 0, 8, 2795),
 'empty-tri/drs': ('0.0', 1, 0, 0, 0)}

COMPONENTS = {'sym-tri/sste': '109.44',
 'sym-tri/sust': '86.88928127220296',
 'star3/sste': '14.28',
 'star3/sust': '15.12',
 'sym-mixed/sste': '1102.08',
 'sym-mixed/sust': '912.337453358131'}

PROJECTION = {'proj-path/1': ('18.749999999999993', 16, 0, 6, 193),
 'proj-path/2': ('18.749999999999993', 16, 0, 6, 155),
 'proj-threecomp/1': ('60.0', 6, 0, 6, 109),
 'proj-threecomp/2': ('60.0', 6, 0, 6, 81)}

GHD_CYCLE4 = '24.666666666666668'

CLI = {'estimate/drs': {'command': 'estimate',
                  'input_sha256': '7e5e25d3c0460499b3e4d452360295ca8964068667c6015ca42bc89bcdc0df23',
                  'seed': '8',
                  'strategy': 'drs',
                  'estimate': 11.458333333333334,
                  'trials': 1680,
                  'mode': 'geometric',
                  'ops': 14577,
                  'epsilon': 0.5,
                  'delta': 0.1,
                  'stages': 3,
                  'assumed_out': 6.249999999999999},
 'estimate/alley-median': {'command': 'estimate',
                           'input_sha256': 'fd112fae16a690ecac97295415e9873c96020f4a2adf58c152ea496ce24b031b',
                           'seed': '0',
                           'strategy': 'alley',
                           'estimate': 6.6,
                           'trials': 240,
                           'mode': 'geometric',
                           'ops': 8391,
                           'epsilon': 0.5,
                           'delta': 0.5,
                           'stages': 5,
                           'assumed_out': 3.247595264191646,
                           'b': 0.5},
 'estimate/drs-skip-tie': {'command': 'estimate',
                           'input_sha256': 'bfa38eceb5df8c4120c2a7aaf547dcc520647dac31669700b725f73a815b58e9',
                           'seed': '0',
                           'strategy': 'drs',
                           'estimate': 66.375,
                           'trials': 896,
                           'mode': 'geometric',
                           'ops': 6928,
                           'epsilon': 0.5,
                           'delta': 0.5,
                           'stages': 3,
                           'assumed_out': 36.0,
                           'boost': 'tie'},
 'estimate/gj-sc': {'command': 'estimate',
                    'input_sha256': '7e5e25d3c0460499b3e4d452360295ca8964068667c6015ca42bc89bcdc0df23',
                    'seed': '0',
                    'strategy': 'gj',
                    'estimate': 14.285714285714283,
                    'trials': 14,
                    'mode': 'success-count',
                    'ops': 308,
                    'epsilon': 0.5,
                    'delta': 0.1,
                    'successes': 8,
                    'c': 8},
 'estimate/projection': {'command': 'estimate',
                         'input_sha256': '8ec4acf2b59791dace332da03581b7ba974becf0b26c6c5f144b9249141cf103',
                         'seed': '9',
                         'strategy': 'drs',
                         'projection': 'A,C',
                         'estimate': 17.647058823529406,
                         'trials': 17,
                         'mode': 'success-count',
                         'ops': 206,
                         'successes': 6,
                         'c': 6},
 'sample/drs': {'command': 'sample',
                'input_sha256': '7e5e25d3c0460499b3e4d452360295ca8964068667c6015ca42bc89bcdc0df23',
                'seed': '10',
                'strategy': 'drs',
                'attempts': 8,
                'successes': 1,
                'ops': 67,
                'rows': ['attempts (i, status, A,B,C):',
                         ['0\tfail\t-',
                          '1\tfail\t-',
                          '2\tfail\t-',
                          '3\tfail\t-',
                          '4\tfail\t-',
                          '5\tfail\t-',
                          '6\tfail\t-',
                          '7\tok\t1,3,1']]},
 'sample/gj': {'command': 'sample',
               'input_sha256': 'bfa38eceb5df8c4120c2a7aaf547dcc520647dac31669700b725f73a815b58e9',
               'seed': '0',
               'strategy': 'gj',
               'attempts': 8,
               'successes': 5,
               'ops': 317,
               'rows': ['attempts (i, status, A,B,C,D):',
                        ['0\tok\t0,3,2,3',
                         '1\tok\t3,0,3,0',
                         '2\tfail\t-',
                         '3\tok\t1,2,2,3',
                         '4\tfail\t-',
                         '5\tok\t4,1,0,3',
                         '6\tok\t0,1,3,0',
                         '7\tfail\t-']]},
 'sample/exact': {'command': 'sample',
                  'input_sha256': 'bfa38eceb5df8c4120c2a7aaf547dcc520647dac31669700b725f73a815b58e9',
                  'seed': '0',
                  'strategy': 'exact',
                  'attempts': 5,
                  'successes': 5,
                  'ops': 15,
                  'rows': ['attempts (i, status, A,B,C,D):',
                           ['0\tok\t3,1,0,3',
                            '1\tok\t0,4,2,3',
                            '2\tok\t4,1,3,0',
                            '3\tok\t0,3,1,4',
                            '4\tok\t4,2,2,3']]},
 'sample/sust': {'command': 'sample',
                 'input_sha256': 'd6f68f0a8cab8c9c86d93b05327a978732983c8a4d86acf8da18d8134a2904fb',
                 'seed': '0',
                 'strategy': 'sust',
                 'attempts': 30,
                 'successes': 1,
                 'ops': 243,
                 'rows': ['attempts (i, status, A,B,C):',
                          ['0\tfail\t-',
                           '1\tfail\t-',
                           '2\tfail\t-',
                           '3\tfail\t-',
                           '4\tfail\t-',
                           '5\tfail\t-',
                           '6\tfail\t-',
                           '7\tfail\t-',
                           '8\tfail\t-',
                           '9\tfail\t-',
                           '10\tfail\t-',
                           '11\tfail\t-',
                           '12\tfail\t-',
                           '13\tfail\t-',
                           '14\tfail\t-',
                           '15\tfail\t-',
                           '16\tfail\t-',
                           '17\tfail\t-',
                           '18\tfail\t-',
                           '19\tfail\t-',
                           '20\tfail\t-',
                           '21\tfail\t-',
                           '22\tok\t2,3,4',
                           '23\tfail\t-',
                           '24\tfail\t-',
                           '25\tfail\t-',
                           '26\tfail\t-',
                           '27\tfail\t-',
                           '28\tfail\t-',
                           '29\tfail\t-']]},
 'sample/projection': {'command': 'sample',
                       'input_sha256': '8ec4acf2b59791dace332da03581b7ba974becf0b26c6c5f144b9249141cf103',
                       'seed': '0',
                       'strategy': 'drs',
                       'attempts': 8,
                       'successes': 5,
                       'ops': 126,
                       'rows': ['attempts (i, status, A,C):',
                                ['0\tfail\t-',
                                 '1\tok\t1,2',
                                 '2\tfail\t-',
                                 '3\tok\t3,2',
                                 '4\tfail\t-',
                                 '5\tok\t4,0',
                                 '6\tok\t0,3',
                                 '7\tok\t3,2']]},
 'bench/all': {'command': 'bench',
               'input_sha256': 'd6f68f0a8cab8c9c86d93b05327a978732983c8a4d86acf8da18d8134a2904fb',
               'seed': '11',
               'trials': 40,
               'out': 90,
               'table': [['strategy', 'mean', 'variance', 'ops/trial', 'var_bound'],
                         [['wander', '102.4000', '5681.8872', '9.0', '48875.2207'],
                          ['alley', '91.0437', '121.0235', '99.7', '48600.0000'],
                          ['gj', '95.0352', '8381.0462', '56.6', '48875.2207'],
                          ['drs', '36.2039', '52428.8000', '8.2', '391001.7657'],
                          ['sste', '139.2000', '96389.9077', '18.0', '130333.9219']]]}}
