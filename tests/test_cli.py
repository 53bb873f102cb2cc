import json

import pytest

from arcroute import gen_perturbed_ring
from arcroute.cli import main
from conftest import C4_MODEL


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(C4_MODEL))
    return path


def run(args):
    return main([str(a) for a in args])


def test_build_writes_scheme_and_stats(tmp_path, c4_file, capsys):
    out = tmp_path / "scheme.json"
    assert run(["build", "--model", c4_file, "--out", out]) == 0
    captured = capsys.readouterr()
    scheme = json.loads(out.read_text())
    assert scheme["order"] == [0, 1, 2, 3]
    stats = json.loads(captured.err)
    assert stats["total_intervals"] == 8


def test_build_rejects_interval_model(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text('{"n": 2, "arcs": [[0, 1], [2, 3]]}')
    assert run(["build", "--model", path]) == 2
    assert "not-real-circular-arc" in capsys.readouterr().err


def test_build_rejects_bad_model(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "arcs": [[0, 1], [1, 2]]}')
    assert run(["build", "--model", path]) == 2
    assert "duplicate-endpoint" in capsys.readouterr().err


def test_verify_accepts_built_scheme(tmp_path, c4_file, capsys):
    out = tmp_path / "scheme.json"
    run(["build", "--model", c4_file, "--out", out])
    capsys.readouterr()
    assert run(["verify", "--model", c4_file, "--scheme", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_verify_reads_any_json_spacing(tmp_path, capsys):
    # the same report for the built file, its indented form and its
    # compact form, on a scheme with two-interval arcs
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"n": 4, "arcs": [[6, 3], [0, 1], [2, 5], [4, 7]]}))
    built = tmp_path / "scheme.json"
    run(["build", "--model", model, "--out", built])
    scheme = json.loads(built.read_text())
    assert any(len(ivls) == 2 for ivls in scheme["labels"].values())
    reports = []
    for name, text in [("built", built.read_text()),
                       ("indented", json.dumps(scheme, indent=2)),
                       ("compact", json.dumps(scheme, separators=(",", ":")))]:
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        capsys.readouterr()
        assert run(["verify", "--model", model, "--scheme", path]) == 0
        reports.append(capsys.readouterr().out)
    assert json.loads(reports[0])["passed"] is True
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_verify_flags_tampered_scheme(tmp_path, c4_file, capsys):
    out = tmp_path / "scheme.json"
    run(["build", "--model", c4_file, "--out", out])
    scheme = json.loads(out.read_text())
    scheme["labels"]["0->1"] = [[1, 3]]  # overlaps the 0->3 interval
    out.write_text(json.dumps(scheme))
    capsys.readouterr()
    assert run(["verify", "--model", c4_file, "--scheme", out]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["disjoint_violations"]


def test_verify_wrong_model_is_structural(tmp_path, c4_file, capsys):
    out = tmp_path / "scheme.json"
    run(["build", "--model", c4_file, "--out", out])
    other = tmp_path / "k6.json"
    run(["gen", "--family", "complete", "--n", 6, "--out", other])
    capsys.readouterr()
    assert run(["verify", "--model", other, "--scheme", out]) == 2


def test_route_prints_path(tmp_path, c4_file, capsys):
    out = tmp_path / "scheme.json"
    run(["build", "--model", c4_file, "--out", out])
    capsys.readouterr()
    assert run(["route", "--model", c4_file, "--scheme", out,
                "--src", 0, "--dst", 2]) == 0
    assert capsys.readouterr().out.strip() == "0 1 2"


def test_gen_families(tmp_path, capsys):
    for family, n in [("ring", 5), ("wheel", 6), ("complete", 4),
                      ("random", 8), ("perturbed-ring", 12)]:
        out = tmp_path / f"{family}.json"
        assert run(["gen", "--family", family, "--n", n, "--seed", 3,
                    "--out", out]) == 0
        model = json.loads(out.read_text())
        expected_n = n + 1 if family == "wheel" else n
        assert model["n"] == expected_n


def test_gen_to_stdout(capsys):
    assert run(["gen", "--family", "ring", "--n", 4]) == 0
    model = json.loads(capsys.readouterr().out)
    assert model == C4_MODEL


def test_oracle1_ring(tmp_path, capsys):
    model = tmp_path / "ring.json"
    run(["gen", "--family", "ring", "--n", 5, "--out", model])
    capsys.readouterr()
    assert run(["oracle1", "--model", model]) == 0
    captured = capsys.readouterr()
    assert "1-IRS exists" in captured.err
    payload = json.loads(captured.out)
    assert sorted(payload["order"]) == [0, 1, 2, 3, 4]


def test_oracle1_has_no_witness_out_flag(tmp_path, capsys):
    # oracle1 writes its witness to stdout only, so argparse rejects
    # --witness-out as a usage error
    model = tmp_path / "ring.json"
    run(["gen", "--family", "ring", "--n", 5, "--out", model])
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run(["oracle1", "--model", model, "--witness-out", tmp_path / "w.json"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --witness-out" in captured.err
    assert not (tmp_path / "w.json").exists()


def test_oracle1_reports_absence(tmp_path, capsys):
    model = tmp_path / "w6.json"
    run(["gen", "--family", "wheel", "--n", 6, "--out", model])
    capsys.readouterr()
    assert run(["oracle1", "--model", model]) == 0
    captured = capsys.readouterr()
    assert "no 1-IRS" in captured.err
    assert json.loads(captured.out) == {"exists_1irs": False}


# the exact witness bytes, so that a change in the search order shows
ORACLE1_STDOUT = {
    "ring": '{"order": [0, 1, 2, 3, 4], "labels": {"0->1": [[1, 2]], "0->4": [[3, 4]], '
            '"1->0": [[4, 0]], "1->2": [[2, 3]], "2->1": [[0, 1]], "2->3": [[3, 4]], '
            '"3->2": [[1, 2]], "3->4": [[4, 0]], "4->0": [[0, 1]], "4->3": [[2, 3]]}}\n',
    "wheel": '{"order": [0, 1, 2, 3, 4, 5], "labels": {"0->1": [[1, 2]], "0->4": [[3, 4]], '
             '"0->5": [[5, 5]], "1->0": [[0, 0]], "1->2": [[2, 3]], "1->5": [[4, 5]], '
             '"2->1": [[1, 1]], "2->3": [[3, 4]], "2->5": [[5, 0]], "3->2": [[2, 2]], '
             '"3->4": [[4, 4]], "3->5": [[5, 1]], "4->0": [[0, 1]], "4->3": [[2, 3]], '
             '"4->5": [[5, 5]], "5->0": [[0, 0]], "5->1": [[1, 1]], "5->2": [[2, 2]], '
             '"5->3": [[3, 3]], "5->4": [[4, 4]]}}\n',
}


@pytest.mark.parametrize("family", ["ring", "wheel"])
def test_oracle1_witness_bytes(tmp_path, capsys, family):
    model = tmp_path / "model.json"
    run(["gen", "--family", family, "--n", 5, "--out", model])
    capsys.readouterr()
    assert run(["oracle1", "--model", model]) == 0
    assert capsys.readouterr() == (ORACLE1_STDOUT[family], "1-IRS exists\n")


def test_oracle1_limit(tmp_path, capsys):
    model = tmp_path / "big.json"
    run(["gen", "--family", "random", "--n", 12, "--seed", 0, "--out", model])
    capsys.readouterr()
    assert run(["oracle1", "--model", model, "--limit", 9]) == 2
    assert "oracle-limit" in capsys.readouterr().err


def test_missing_file_is_structural(capsys):
    assert run(["build", "--model", "/nonexistent/x.json"]) == 2


def test_verify_threads_flag(tmp_path, c4_file, capsys):
    # verify runs on one thread and has no --threads option: argparse
    # rejects it as a usage error
    out = tmp_path / "scheme.json"
    assert run(["build", "--model", c4_file, "--out", out]) == 0
    assert run(["verify", "--model", c4_file, "--scheme", out]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run(["verify", "--model", c4_file, "--scheme", out, "--threads", 2])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --threads 2" in captured.err


def test_bad_threads_env_is_a_clean_failure(monkeypatch, c4_file, capsys):
    # CARC_THREADS is no longer read, so a value that is not an integer
    # cannot fail a command that never used threads
    monkeypatch.setenv("CARC_THREADS", "abc")
    assert run(["build", "--model", c4_file]) == 0
    assert run(["gen", "--family", "ring", "--n", 4]) == 0
    err = capsys.readouterr().err
    assert "error" not in err and "CARC_THREADS" not in err


def test_non_integer_scheme_values_are_structural(tmp_path, c4_file, capsys):
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps(
        {"order": [0, 1.9, 2, 3], "labels": {"0->1": [[True, 1.5]]}}))
    assert run(["verify", "--model", c4_file, "--scheme", scheme]) == 2
    assert "structural" in capsys.readouterr().err


def test_malformed_arc_key_is_structural(tmp_path, c4_file, capsys):
    scheme = tmp_path / "scheme.json"
    scheme.write_text('{"order": [0, 1, 2, 3], "labels": '
                      '{"0->1": [[1, 2]], "00->1": [[3, 3]]}}')
    assert run(["verify", "--model", c4_file, "--scheme", scheme]) == 2
    assert "structural" in capsys.readouterr().err


def one_error_line(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error"), lines
    return lines[0]


def test_undecodable_model_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"n": 4}'.encode("utf-16-le"))
    assert run(["build", "--model", path]) == 2
    assert "bad-format" in one_error_line(capsys)


def test_model_with_a_repeated_key_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"n": 4, "arcs": [[0, 5], [4, 1], [2, 7], [6, 3]], '
                    '"arcs": [[0, 3], [2, 5], [4, 7], [6, 1]]}')
    assert run(["build", "--model", path]) == 2
    assert capsys.readouterr() == (
        "", "error [bad-format]: model JSON repeats an object key\n")


def test_undecodable_scheme_is_structural(tmp_path, c4_file, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"order": [0]}'.encode("utf-16-le"))
    assert run(["verify", "--model", c4_file, "--scheme", path]) == 2
    assert "structural" in one_error_line(capsys)


def test_directory_as_model_is_an_error(tmp_path, capsys):
    assert run(["build", "--model", tmp_path]) == 2
    one_error_line(capsys)


def test_route_to_itself_is_an_error(tmp_path, c4_file, capsys):
    out = tmp_path / "scheme.json"
    run(["build", "--model", c4_file, "--out", out])
    capsys.readouterr()
    assert run(["route", "--model", c4_file, "--scheme", out,
                "--src", 1, "--dst", 1]) == 2
    assert "bad-argument" in one_error_line(capsys)


def test_route_from_outside_the_graph_is_structural(tmp_path, c4_file, capsys):
    out = tmp_path / "scheme.json"
    run(["build", "--model", c4_file, "--out", out])
    capsys.readouterr()
    assert run(["route", "--model", c4_file, "--scheme", out,
                "--src", 99, "--dst", 1]) == 2
    assert capsys.readouterr().err == (
        "error [structural]: route endpoints outside the graph\n")


@pytest.mark.parametrize("family, n", [("ring", 2), ("wheel", 2), ("complete", 1)])
def test_too_small_ring_is_an_error(capsys, family, n):
    assert run(["gen", "--family", family, "--n", n]) == 2
    assert "bad-argument" in one_error_line(capsys)


def test_route_through_a_hole_is_a_failure(tmp_path, c4_file, capsys):
    out = tmp_path / "scheme.json"
    run(["build", "--model", c4_file, "--out", out])
    scheme = json.loads(out.read_text())
    scheme["labels"]["0->1"] = [[1, 1]]  # 0's interval for 2 cut away
    out.write_text(json.dumps(scheme))
    capsys.readouterr()
    assert run(["route", "--model", c4_file, "--scheme", out,
                "--src", 0, "--dst", 2]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error [coverage-hole]: no interval at 0 contains 2\n"


def test_perturbed_ring_gen_is_the_library_model(capsys):
    assert run(["gen", "--family", "perturbed-ring", "--n", 40, "--seed", 5]) == 0
    assert capsys.readouterr().out == gen_perturbed_ring(40, 5).to_json() + "\n"
    assert run(["gen", "--family", "perturbed-ring", "--n", 7]) == 2
    assert one_error_line(capsys) == (
        "error [bad-argument]: perturbed rings need at least 8 arcs, got 7")


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate")])
def test_out_of_memory_is_a_clean_failure(monkeypatch, capsys, error):
    # a model too large to generate ends with one error line, not a
    # traceback; the generator is stubbed, so nothing large is allocated
    def too_large(n, seed):
        raise error

    monkeypatch.setattr("arcroute.cli.gen_random", too_large)
    assert run(["gen", "--family", "random", "--n", 10 ** 11]) == 2
    assert one_error_line(capsys) == f"error: {str(error) or 'out of memory'}"


def test_route_over_a_non_edge_is_structural(tmp_path, c4_file, capsys):
    path = tmp_path / "phantom.json"
    path.write_text(json.dumps({
        "order": [0, 1, 2, 3],
        "labels": {"0->2": [[1, 3]], "1->0": [[2, 0]],
                   "2->1": [[3, 1]], "3->0": [[0, 2]]},
    }))
    for command in (["route", "--src", 0, "--dst", 2], ["verify"]):
        assert run(command + ["--model", c4_file, "--scheme", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error [structural]: arc (0, 2) is not a graph edge\n"


def deeply_nested(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 2000 + "]" * 2000)
    return path


def test_deeply_nested_model_is_a_format_error(tmp_path, capsys):
    assert run(["build", "--model", deeply_nested(tmp_path)]) == 2
    assert "bad-format" in one_error_line(capsys)


def test_deeply_nested_scheme_is_structural(tmp_path, c4_file, capsys):
    assert run(["verify", "--model", c4_file,
                "--scheme", deeply_nested(tmp_path)]) == 2
    assert "structural" in one_error_line(capsys)
