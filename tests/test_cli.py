import json

import pytest

from conftest import CORPUS
from joinsample.cli import main


def _write_inputs(tmp_path, raw, qtext, dbname="db"):
    dbdir = tmp_path / dbname
    dbdir.mkdir()
    for rel, (schema, rows) in raw.items():
        lines = [f"{rel}:{','.join(schema)}"]
        lines.extend(",".join(map(str, r)) for r in rows)
        (dbdir / f"{rel}.rel").write_text("\n".join(lines) + "\n")
    qpath = tmp_path / "query.json"
    qpath.write_text(qtext)
    return str(dbdir), str(qpath)


def _fixture_inputs(tmp_path, name, dbname="db"):
    raw, qtext = CORPUS[name]()
    return _write_inputs(tmp_path, raw, qtext, dbname)


def test_join_with_oracle(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    assert main(["join", dbdir, qpath, "--oracle"]) == 0
    text = capsys.readouterr().out
    assert "out: 11" in text
    assert "oracle_checked: True" in text
    assert "1,1,1" in text


def test_join_projection_listing(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "proj-path")
    assert main(["join", dbdir, qpath]) == 0
    text = capsys.readouterr().out
    assert "answers (A,C):" in text


def test_join_json_report(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "path3")
    assert main(["join", dbdir, qpath, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "join"
    assert doc["out"] == 62
    assert len(doc["input_sha256"]) == 64


def test_estimate_deterministic(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    argv = ["estimate", dbdir, qpath, "--strategy", "drs",
            "--epsilon", "0.5", "--delta", "0.2", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "estimate:" in first


def test_estimate_alley_full_branch_exact(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "path3")
    assert main(["estimate", dbdir, qpath, "--strategy", "alley",
                 "--b", "1.0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimate"] == 62.0
    assert doc["b"] == 1.0


def test_estimate_success_count_projection(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "proj-path")
    assert main(["estimate", dbdir, qpath, "--mode", "success-count",
                 "--c", "48", "--seed", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "success-count"
    assert doc["projection"] == "A,C"
    assert doc["successes"] <= 48
    assert doc["estimate"] > 0


def test_estimate_rejects_walk_on_projection(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "proj-path")
    assert main(["estimate", dbdir, qpath, "--strategy", "wander"]) == 4


def test_sample_listing_and_reproducibility(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    argv = ["sample", dbdir, qpath, "-n", "8", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "attempts: 8" in first
    assert "\tok\t" in first or "\tfail\t" in first


def test_sample_exact_always_succeeds(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "path3")
    assert main(["sample", dbdir, qpath, "--strategy", "exact",
                 "-n", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["successes"] == 6


def test_sample_exact_rejects_cyclic(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "tri-skew")
    assert main(["sample", dbdir, qpath, "--strategy", "exact"]) == 4


def test_sample_zero_attempts(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    assert main(["sample", dbdir, qpath, "-n", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["attempts"] == 0 and doc["successes"] == 0


def test_sample_empty_join_all_fail(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "empty-tri")
    assert main(["sample", dbdir, qpath, "-n", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["successes"] == 0


def test_ghd_search_report(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "tri-skew")
    assert main(["ghd", dbdir, qpath]) == 0
    text = capsys.readouterr().out
    assert "fhtw: 3/2" in text
    assert "source: search" in text
    assert "node" in text and "bag" in text


def test_ghd_estimate_exact_on_acyclic(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "star3")
    assert main(["ghd", dbdir, qpath, "--estimate", "--budget", "1",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimate"] == 15.0


def test_ghd_user_supplied_accept_and_reject(tmp_path, capsys):
    raw, _ = CORPUS["cycle4"]()
    good = {
        "attributes": ["A", "B", "C", "D"],
        "edges": [{"relation": "R1", "vars": ["A", "B"]},
                  {"relation": "R2", "vars": ["B", "C"]},
                  {"relation": "R3", "vars": ["C", "D"]},
                  {"relation": "R4", "vars": ["D", "A"]}],
        "ghd": {"bags": [["A", "B", "C"], ["A", "C", "D"]], "edges": [[0, 1]]},
    }
    dbdir, qpath = _write_inputs(tmp_path, raw, json.dumps(good))
    assert main(["ghd", dbdir, qpath]) == 0
    text = capsys.readouterr().out
    assert "source: query file" in text

    bad = dict(good)
    bad["ghd"] = {"bags": [["A", "B"], ["C", "D"]], "edges": [[0, 1]]}
    qpath2 = tmp_path / "bad.json"
    qpath2.write_text(json.dumps(bad))
    assert main(["ghd", dbdir, str(qpath2)]) == 4


def test_ghd_tree_with_a_cycle_is_rejected(tmp_path, capsys):
    raw, _ = CORPUS["tri-skew"]()
    qdoc = {
        "attributes": ["A", "B", "C"],
        "edges": [{"relation": "R", "vars": ["A", "B"]},
                  {"relation": "S", "vars": ["B", "C"]},
                  {"relation": "T", "vars": ["A", "C"]}],
        "ghd": {"bags": [["A", "B"], ["B", "C"], ["A", "C"]],
                "edges": [[0, 1], [1, 2], [2, 0]]},
    }
    dbdir, qpath = _write_inputs(tmp_path, raw, json.dumps(qdoc))
    assert main(["ghd", dbdir, qpath]) == 4
    assert main(["ghd", dbdir, qpath, "--estimate"]) == 4
    assert "needs 2 edges, got 3" in capsys.readouterr().err


def test_ghd_estimate_enforces_an_edge_inside_a_covering_one(tmp_path, capsys):
    raw = {"F": (("A", "B", "C"), [(1, 1, 1), (1, 2, 1), (2, 2, 2)]),
           "E": (("A", "B"), [(1, 1)])}
    qdoc = {"attributes": ["A", "B", "C"],
            "edges": [{"relation": "F", "vars": ["A", "B", "C"]},
                      {"relation": "E", "vars": ["A", "B"]}],
            "ghd": {"bags": [["A", "B", "C"], ["A", "B"], ["A", "B"]],
                    "edges": [[0, 1], [0, 2]]}}
    dbdir, qpath = _write_inputs(tmp_path, raw, json.dumps(qdoc))
    assert main(["ghd", dbdir, qpath, "--estimate", "--budget", "4"]) == 0
    assert "estimate: 1.0" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["ghd", "--estimate", "--budget", "8"], ["bench"]])
def test_full_join_counts_reject_a_projection(tmp_path, capsys, argv):
    # both count the full join; a projected query's answers are fewer
    dbdir, qpath = _fixture_inputs(tmp_path, "proj-path")
    assert main([argv[0], dbdir, qpath, *argv[1:]]) == 4
    err = capsys.readouterr().err
    assert "projects onto A,C" in err
    assert main(["ghd", dbdir, qpath]) == 0


@pytest.mark.parametrize("argv", [["join"], ["join", "--oracle"], ["ghd"],
                                  ["sample"], ["estimate"], ["bench"]])
def test_an_attribute_listed_twice_is_a_load_error(tmp_path, capsys, argv):
    raw = {"R": (("A", "B"), [(1, 2)]), "S": (("B", "C"), [(2, 3), (2, 6)])}
    qdoc = {"attributes": ["A", "A", "B", "C"],
            "edges": [{"relation": "R", "vars": ["A", "B"]},
                      {"relation": "S", "vars": ["B", "C"]}]}
    dbdir, qpath = _write_inputs(tmp_path, raw, json.dumps(qdoc))
    assert main([argv[0], dbdir, qpath, *argv[1:]]) == 3
    assert "repeat" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["join"], ["sample"], ["estimate"]])
@pytest.mark.parametrize("projection", [["A", "A", "C"], "AC"])
def test_a_bad_projection_list_is_a_load_error(tmp_path, capsys, argv, projection):
    raw = {"R": (("A", "B"), [(1, 2)]), "S": (("B", "C"), [(2, 3), (2, 6)])}
    qdoc = {"attributes": ["A", "B", "C"], "projection": projection,
            "edges": [{"relation": "R", "vars": ["A", "B"]},
                      {"relation": "S", "vars": ["B", "C"]}]}
    dbdir, qpath = _write_inputs(tmp_path, raw, json.dumps(qdoc))
    assert main([argv[0], dbdir, qpath, *argv[1:]]) == 3
    assert "projection" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["join", "ghd"])
def test_a_relation_that_is_not_a_string_is_a_load_error(tmp_path, capsys, cmd):
    raw = {"R": (("A", "B"), [(1, 2)]), "S": (("B", "C"), [(2, 3), (2, 6)])}
    qdoc = {"attributes": ["A", "B", "C"],
            "edges": [{"relation": ["R"], "vars": ["A", "B"]},
                      {"relation": "S", "vars": ["B", "C"]}]}
    dbdir, qpath = _write_inputs(tmp_path, raw, json.dumps(qdoc))
    assert main([cmd, dbdir, qpath]) == 3
    assert "edge 0 relation" in capsys.readouterr().err


@pytest.mark.parametrize("ghd, field", [
    ({"bags": ["AB", "BC"], "edges": [[0, 1]]}, "ghd bag 0"),
    ({"bags": "ABC", "edges": []}, "ghd bags"),
    ({"bags": [["A", "B"], ["B", "C"]], "edges": [[True, False]]}, "ghd edges"),
    ({"bags": [["A", "B"], ["B", "C"]], "edges": [[0, 1, 2]]}, "ghd edges"),
    ({"bags": [["A", "B"], ["B", "C"]], "edges": [[0, 1]], "root": 0.0}, "ghd root"),
])
def test_a_ghd_field_of_the_wrong_type_is_invalid(tmp_path, capsys, ghd, field):
    raw = {"R": (("A", "B"), [(1, 2)]), "S": (("B", "C"), [(2, 3), (2, 6)])}
    qdoc = {"attributes": ["A", "B", "C"], "ghd": ghd,
            "edges": [{"relation": "R", "vars": ["A", "B"]},
                      {"relation": "S", "vars": ["B", "C"]}]}
    dbdir, qpath = _write_inputs(tmp_path, raw, json.dumps(qdoc))
    assert main(["ghd", dbdir, qpath]) == 4
    assert field in capsys.readouterr().err


def test_ghd_search_reports_fhtw_on_cyclic_fixtures(tmp_path, capsys):
    for name, want in (("sym-5cyc", "2"), ("k4", "2"), ("sym-mixed", "3/2")):
        (tmp_path / name).mkdir()
        dbdir, qpath = _fixture_inputs(tmp_path / name, name)
        assert main(["ghd", dbdir, qpath, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fhtw"] == doc["width"] == want, name


def test_bench_table(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    argv = ["bench", dbdir, qpath, "--strategies", "wander,drs",
            "--trials", "40", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "strategy" in first and "var_bound" in first
    assert "out: 11" in first


def test_bench_rejects_unknown_strategy(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    assert main(["bench", dbdir, qpath, "--strategies", "bogus"]) == 4


def test_exit_code_load_errors(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    assert main(["join", str(tmp_path / "nope"), qpath]) == 3
    empty = tmp_path / "emptydb"
    empty.mkdir()
    assert main(["join", str(empty), qpath]) == 3
    badq = tmp_path / "bad.json"
    badq.write_text("{not json")
    assert main(["join", dbdir, str(badq)]) == 3
    emptyq = tmp_path / "empty.json"
    emptyq.write_text('{"attributes": [], "edges": []}')
    capsys.readouterr()
    for cmd in ("join", "ghd", "estimate"):
        assert main([cmd, dbdir, str(emptyq)]) == 3
        assert "no edges" in capsys.readouterr().err


def test_exit_code_relation_name_declared_twice(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    (tmp_path / "db" / "S.rel").write_text("R:A,B\n9,9\n")
    capsys.readouterr()
    assert main(["join", dbdir, qpath]) == 3
    assert "'R' is already loaded" in capsys.readouterr().err


def test_exit_code_derived_relation_name(tmp_path, capsys):
    # names the package once derived for itself load like any other
    raw = {"R": (("A", "B"), [(1, 2), (2, 3)]), "R@X,Y": (("X", "Y"), [(9, 9)]),
           "R[A,B|A]": (("A", "B"), [(9, 9)])}
    qdoc = {"attributes": ["X", "Y", "Z"],
            "edges": [{"relation": "R", "vars": ["X", "Y"]},
                      {"relation": "R", "vars": ["Y", "Z"]}]}
    dbdir, qpath = _write_inputs(tmp_path, raw, json.dumps(qdoc))
    assert main(["join", dbdir, qpath, "--oracle"]) == 0
    text = capsys.readouterr().out
    assert "out: 1" in text
    assert "oracle_checked: True" in text
    assert "1,2,3" in text


def test_threads_flag_is_gone(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    for cmd in ("estimate", "bench"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, dbdir, qpath, "--threads", "2"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["estimate", "--mode", "success-count", "--c", "0"],
    ["estimate", "--mode", "success-count", "--c", "-3"],
    ["estimate", "--c", "0"],
    ["bench", "--trials", "0"],
    ["bench", "--trials", "-2"],
    ["sample", "-n", "-1"],
    ["ghd", "--estimate", "--budget", "0"],
    ["ghd", "--estimate", "--budget", "-3"],
])
def test_usage_error_for_counts_out_of_range(tmp_path, capsys, argv):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    with pytest.raises(SystemExit) as exc:
        main([argv[0], dbdir, qpath, *argv[1:]])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--epsilon", "2"],
    ["--epsilon", "1"],
    ["--epsilon", "nan"],
    ["--delta", "0"],
    ["--delta", "-0.1"],
    ["--strategy", "alley", "--b", "0"],
    ["--strategy", "alley", "--b", "1.5"],
])
def test_usage_error_for_fractions_out_of_range(tmp_path, capsys, argv):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    with pytest.raises(SystemExit) as exc:
        main(["estimate", dbdir, qpath, *argv])
    assert exc.value.code == 2
    assert "must be in (0, 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--strategy", "wander"],
    ["--strategy", "alley"],
    ["--boost", "tie"],
    ["--boost", "any-edge"],
    ["--skip-nonjoin"],
])
def test_unsupported_success_count_is_a_validation_error(tmp_path, capsys, argv):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    assert main(["estimate", dbdir, qpath, "--mode", "success-count", *argv]) == 4


@pytest.mark.parametrize("argv", [
    ["--strategy", "wander"],
    ["--strategy", "alley"],
    ["--boost", "tie"],
    ["--boost", "any-edge"],
])
def test_unsupported_success_count_fails_on_an_empty_join(tmp_path, capsys, argv):
    # the strategy is checked before the empty join's zero report
    dbdir, qpath = _fixture_inputs(tmp_path, "empty-tri")
    assert main(["estimate", dbdir, qpath, "--mode", "success-count", *argv]) == 4
    assert main(["estimate", dbdir, qpath, "--mode", "success-count"]) == 0


@pytest.mark.parametrize("fix,argv", [
    ("tri-skew", ["--strategy", "gj", "--boost", "tie"]),
    ("tri-skew", ["--strategy", "wander", "--boost", "any-edge"]),
    ("tri-skew", ["--strategy", "alley", "--boost", "tie"]),
    ("proj-path", ["--boost", "tie"]),
    ("proj-path", ["--strategy", "gj", "--boost", "any-edge"]),
])
def test_boost_outside_drs_on_a_join_is_a_validation_error(tmp_path, capsys, fix, argv):
    dbdir, qpath = _fixture_inputs(tmp_path, fix)
    assert main(["estimate", dbdir, qpath, "--seed", "1", *argv]) == 4
    assert "--boost" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--skip-nonjoin", "--median"])
def test_join_only_flag_on_a_projection_is_a_validation_error(tmp_path, capsys, flag):
    # projection estimates always count successes; neither flag would act
    dbdir, qpath = _fixture_inputs(tmp_path, "proj-path")
    assert main(["estimate", dbdir, qpath, "--seed", "1", flag]) == 4
    assert flag in capsys.readouterr().err


def test_median_with_success_count_is_a_validation_error(tmp_path, capsys):
    # success-count mode has no stages to take a median over
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    argv = ["estimate", dbdir, qpath, "--mode", "success-count", "--c", "8",
            "--seed", "1", "--median"]
    assert main(argv) == 4
    assert "--median" in capsys.readouterr().err


def test_usage_error_for_projection_count_target(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "proj-path")
    with pytest.raises(SystemExit) as exc:
        main(["estimate", dbdir, qpath, "--c", "0"])
    assert exc.value.code == 2


def test_exit_code_validation_error(tmp_path, capsys):
    raw, _ = CORPUS["skew-pair"]()
    qdoc = {"attributes": ["A", "B"],
            "edges": [{"relation": "MISSING", "vars": ["A", "B"]}]}
    dbdir, qpath = _write_inputs(tmp_path, raw, json.dumps(qdoc))
    assert main(["join", dbdir, qpath]) == 4


def test_env_var_database(tmp_path, capsys, monkeypatch):
    dbdir, qpath = _fixture_inputs(tmp_path, "skew-pair")
    monkeypatch.setenv("JOINSAMPLE_DB", dbdir)
    assert main(["join", qpath, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["out"] == 11
    monkeypatch.delenv("JOINSAMPLE_DB")
    assert main(["join", qpath]) == 3


def test_out_file_duplicates_stdout(tmp_path, capsys):
    dbdir, qpath = _fixture_inputs(tmp_path, "path3")
    target = tmp_path / "report.txt"
    assert main(["join", dbdir, qpath, "-o", str(target)]) == 0
    assert target.read_text() == capsys.readouterr().out


_TRIANGLE = {"attributes": ["A", "B", "C"],
             "edges": [{"relation": "E", "vars": ["A", "B"]},
                       {"relation": "E", "vars": ["B", "C"]},
                       {"relation": "E", "vars": ["A", "C"]}]}
_SYM_TRIANGLE = [(1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (1, 3)]
_PATH10 = {"attributes": [f"A{i}" for i in range(11)],
           "edges": [{"relation": f"R{i}", "vars": [f"A{i}", f"A{i + 1}"]}
                     for i in range(10)]}


@pytest.mark.parametrize("raw, qdoc, argv, code, err", [
    ({"E": (("X", "Y"), [(1, 2), (2, 3), (3, 1)])}, _TRIANGLE,
     ["sample", "--strategy", "sust"], 4,
     "error: relation 'E' is not symmetric; cycle canonicalization would bias "
     "the estimate"),
    # the repeated pair is found inside the draw loop, not when planning
    ({"E": (("X", "Y"), _SYM_TRIANGLE + [(1, 2), (2, 1)])}, _TRIANGLE,
     ["sample", "--strategy", "sust"], 4,
     "error: relation 'E' has duplicate rows"),
    ({f"R{i}": (("X", "Y"), [(0, 0)] * 100) for i in range(10)}, _PATH10,
     ["sample", "--strategy", "exact"], 5,
     "error: weight 100000000000000000000 exceeds the unsigned 64-bit range"),
    ({"E": (("X", "Y"), _SYM_TRIANGLE)},
     {"attributes": ["A", "B", "C"],
      "edges": [{"relation": "E", "vars": ["A", "B", "C"]}]},
     ["join"], 4, "error: edge 0: relation 'E' has arity 2, edge has 3"),
], ids=["sust-asymmetric", "sust-duplicate-rows", "exact-overflow", "arity"])
def test_library_errors_reach_the_exit_code_and_message(tmp_path, capsys, raw, qdoc,
                                                        argv, code, err):
    dbdir, qpath = _write_inputs(tmp_path, raw, json.dumps(qdoc))
    assert main([argv[0], dbdir, qpath, *argv[1:]]) == code
    assert capsys.readouterr().err == err + "\n"
