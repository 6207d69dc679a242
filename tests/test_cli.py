"""End-to-end checks of the batch command-line surface.

Every test drives ``zipstrata.cli.main`` in-process with an argv list and
inspects the exit code plus the captured result stream.  The contract under
test: results are byte-deterministic, progress stays on stderr, exit code 0
means success or a passing check, 2 flags usage errors, 3 flags domain
errors, and 4 flags a property check that ran and failed.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from zipstrata.cli import RunConfig, main
from zipstrata.fzip import dieudonne_to_fzip, fzip_to_json

ORDINARY = (((1, 0), (0, 0)), ((0, 0), (0, 1)))
SUPERSINGULAR = (((0, 1), (0, 0)), ((0, 1), (0, 0)))


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# weyl
# ---------------------------------------------------------------------------


def test_weyl_a3_text_summary_reports_order_24(capsys):
    code, out, _ = run(capsys, "weyl", "--family", "A", "--rank", "3")
    assert code == 0
    assert "order: 24\n" in out
    assert "positive_roots: 6\n" in out
    assert "longest_word: s1*s2*s1*s3*s2*s1\n" in out


def test_weyl_rejects_rank_one_in_type_d_as_usage_error(capsys):
    code, out, err = run(capsys, "weyl", "--family", "D", "--rank", "1")
    assert code == 2
    assert out == ""
    assert "rank at least 2" in err


def test_weyl_b2_json_output_is_parseable_and_exact(capsys):
    code, out, _ = run(capsys, "weyl", "--family", "B", "--rank", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "family": "B",
        "rank": 2,
        "order": 8,
        "positive_roots": 4,
        "longest_word": [1, 2, 1, 2],
    }


def test_flag_misuse_is_reported_as_exit_code_two(capsys):
    assert run(capsys, "weyl", "--family", "E", "--rank", "6")[0] == 2
    assert run(capsys, "weyl", "--family", "A", "--rank", "3", "--bogus")[0] == 2
    assert run(capsys, "nosuch")[0] == 2
    assert run(capsys)[0] == 2


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------


def test_strata_for_the_1_20_1_flag_space_exports_462_strata(capsys, tmp_path):
    out_file = tmp_path / "k3.json"
    code, out, _ = run(
        capsys,
        "strata", "--group", "GL", "--n", "22", "--blocks", "1,20,1",
        "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_file.read_text())
    assert len(payload["strata"]) == 462
    assert payload["group"] == {"family": "A", "rank": 21, "gl_center": True}
    assert not (tmp_path / "k3.json.tmp").exists()


def test_strata_dot_export_for_gl2_is_the_frozen_two_node_graph(capsys):
    code, out, _ = run(
        capsys, "strata", "--group", "GL", "--n", "2", "--blocks", "1,1",
        "--format", "dot",
    )
    assert code == 0
    assert out == (
        "digraph strata {\n"
        "  rankdir=BT;\n"
        '  n0 [label="e | 0 | 3"];\n'
        '  n1 [label="s1 | 1 | 4"];\n'
        "  n0 -> n1;\n"
        "}\n"
    )


def test_strata_usage_errors_exit_with_code_two(capsys):
    assert run(capsys, "strata", "--group", "GL", "--n", "2")[0] == 2
    assert run(capsys, "strata", "--group", "GL", "--blocks", "1,1")[0] == 2
    assert run(capsys, "strata", "--group", "GL", "--n", "4", "--blocks", "1,1")[0] == 2
    assert run(capsys, "strata", "--group", "B", "--I", "1")[0] == 2
    assert run(capsys, "strata", "--I", "1")[0] == 2
    assert run(capsys, "strata", "--group", "B", "--rank", "2", "--I", "9")[0] == 2


def test_strata_with_an_incompatible_explicit_j_is_a_domain_error(capsys):
    code, out, err = run(capsys, "strata", "--group", "A", "--rank", "2", "--I", "1", "--J", "1")
    assert code == 3
    assert out == ""
    assert "twist" in err


def test_strata_results_are_byte_deterministic(capsys):
    argv = ("strata", "--group", "B", "--rank", "3", "--I", "1,2")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert json.loads(first[1])["order"] == "complete"


def test_strata_progress_notes_stay_on_stderr(capsys):
    code, out, err = run(capsys, "strata", "--group", "A", "--rank", "2")
    assert code == 0
    json.loads(out)
    assert "stratum poset" in err


# ---------------------------------------------------------------------------
# purity-check
# ---------------------------------------------------------------------------


def test_purity_check_passes_for_every_gl4_block_type(capsys):
    blocks = ["4", "1,3", "2,2", "3,1", "1,1,2", "1,2,1", "2,1,1", "1,1,1,1"]
    for b in blocks:
        code, out, _ = run(capsys, "purity-check", "--group", "GL", "--n", "4", "--blocks", b)
        assert code == 0, b
        assert "result: PASS" in out


def test_purity_check_passes_for_every_b3_parabolic_type(capsys):
    subsets = ["", "1", "2", "3", "1,2", "1,3", "2,3", "1,2,3"]
    for I in subsets:
        argv = ["purity-check", "--group", "B", "--rank", "3"]
        if I:
            argv += ["--I", I]
        code, out, _ = run(capsys, *argv)
        assert code == 0, I
        assert "result: PASS" in out


def test_purity_check_json_format_reports_the_verdict(capsys):
    code, out, _ = run(
        capsys, "purity-check", "--group", "B", "--rank", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["strata_checked"] == 8
    assert payload["violations"] == []


def test_purity_check_replays_a_clean_export_and_passes(capsys, tmp_path):
    poset_file = tmp_path / "poset.json"
    assert run(
        capsys, "strata", "--group", "A", "--rank", "2", "--I", "1",
        "--out", str(poset_file),
    )[0] == 0
    code, out, _ = run(capsys, "purity-check", "--replay", str(poset_file))
    assert code == 0
    assert "result: PASS" in out


def test_purity_check_flags_a_corrupted_export_with_exit_code_four(capsys, tmp_path):
    poset_file = tmp_path / "poset.json"
    run(capsys, "strata", "--group", "A", "--rank", "2", "--I", "1", "--out", str(poset_file))
    payload = json.loads(poset_file.read_text())
    payload["strata"][-1]["length"] += 5
    poset_file.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "purity-check", "--replay", str(poset_file))
    assert code == 4
    assert "result: FAIL" in out
    assert "violation:" in out


def test_purity_check_rejects_unreadable_replay_input_as_domain_error(capsys, tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json {{{")
    assert run(capsys, "purity-check", "--replay", str(garbage))[0] == 3
    assert run(capsys, "purity-check", "--replay", str(tmp_path / "missing.json"))[0] == 3


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def write_fzip(tmp_path, name, pair):
    path = tmp_path / name
    path.write_text(fzip_to_json(dieudonne_to_fzip(*pair)))
    return str(path)


def test_classify_labels_the_ordinary_module_as_the_open_stratum(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", write_fzip(tmp_path, "ord.json", ORDINARY))
    assert code == 0
    assert out.splitlines()[0] == "open stratum, length 1"


def test_classify_labels_the_supersingular_module_as_the_closed_stratum(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", write_fzip(tmp_path, "ss.json", SUPERSINGULAR))
    assert code == 0
    assert out.splitlines()[0] == "closed stratum, length 0"


def test_classify_json_format_carries_word_length_and_position(capsys, tmp_path):
    code, out, _ = run(
        capsys, "classify", write_fzip(tmp_path, "ord.json", ORDINARY),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == [1]
    assert payload["length"] == 1
    assert payload["position"] == "open"
    assert payload["witness_ext"] == 1
    assert payload["strata_total"] == 2


def test_classify_treats_malformed_input_as_a_domain_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not a module description")
    code, out, err = run(capsys, "classify", str(bad))
    assert code == 3
    assert out == ""
    assert "domain error" in err


def test_classify_reports_invariant_violations_in_well_formed_json(capsys, tmp_path):
    payload = json.loads(fzip_to_json(dieudonne_to_fzip(*ORDINARY)))
    payload["n"] = 3
    bad = tmp_path / "inconsistent.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 3
    assert "domain error" in err


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def test_orbits_census_over_extensions_one_to_three_carries_the_identity(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "2", "--q", "2", "--ext", "1..3")
    assert code == 0
    payload = json.loads(out)
    assert [c["ext"] for c in payload["censuses"]] == [1, 2, 3]
    for census in payload["censuses"]:
        assert census["orbit_stabilizer_identity"] == (
            "size * stabilizer_order == zip_group_order"
        )
        for orbit in census["orbits"]:
            assert orbit["size"] * orbit["stabilizer_order"] == census["zip_group_order"]
    assert [o["size"] for o in payload["censuses"][0]["orbits"]] == [2, 4]
    assert payload["censuses"][1]["zip_group_order"] == 144


def test_orbits_rejects_a_composite_field_size_as_usage_error(capsys):
    assert run(capsys, "orbits", "--n", "2", "--q", "6", "--ext", "1")[0] == 2
    assert run(capsys, "orbits", "--n", "2", "--q", "2", "--ext", "3..1")[0] == 2
    assert run(capsys, "orbits", "--n", "2", "--q", "2", "--ext", "x")[0] == 2


# ---------------------------------------------------------------------------
# witt
# ---------------------------------------------------------------------------


def test_witt_reduction_check_over_the_length_two_ring_is_clean(capsys):
    code, out, _ = run(
        capsys, "witt", "--p", "2", "--d", "1", "--m", "2", "--n", "2",
        "--check-reduction",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["orbits_m"] == 8
    assert payload["orbits_1"] == 2


def test_witt_census_at_level_two_reports_eight_orbits(capsys):
    code, out, _ = run(capsys, "witt", "--p", "2", "--d", "1", "--m", "2", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == 2
    assert payload["group_order"] == 96
    assert sorted(o["size"] for o in payload["orbits"]) == [8, 8, 8, 8, 16, 16, 16, 16]


def test_witt_parameter_validation_exits_with_code_two(capsys):
    assert run(capsys, "witt", "--p", "4", "--d", "1", "--m", "2", "--n", "2")[0] == 2
    assert run(capsys, "witt", "--p", "2", "--d", "0", "--m", "2", "--n", "2")[0] == 2
    assert run(
        capsys, "witt", "--p", "2", "--d", "1", "--m", "2", "--n", "2", "--d-block", "3"
    )[0] == 2


def test_witt_oversized_sweeps_are_domain_errors(capsys):
    code, out, err = run(capsys, "witt", "--p", "3", "--d", "2", "--m", "1", "--n", "4")
    assert code == 3
    assert out == ""
    assert "domain error" in err


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def test_counterexample_table_lists_q_squared_minus_one_for_each_field(capsys):
    code, out, _ = run(capsys, "counterexample", "--q", "2,3,4,5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("q  |O_1|")
    for q, line in zip((2, 3, 4, 5), lines[1:5]):
        cells = line.split()
        assert int(cells[0]) == q
        assert int(cells[1]) == q * q - 1
        assert int(cells[2]) == q * q - 1
        assert cells[3:] == ["2", "4", "2", str(q * q), "2"]
    assert "closure" in lines[5]


def test_counterexample_json_format_carries_the_codimension_two_witness(capsys):
    code, out, _ = run(capsys, "counterexample", "--q", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {
            "q": 3,
            "orbit_size": 8,
            "expected_q_squared_minus_one": 8,
            "orbit_sizes": [8, 80, 728],
            "orbit_dimension": 2,
            "ambient_dimension": 4,
            "codimension": 2,
            "fiber_size": 9,
            "boundary_drop": 2,
        }
    ]


def test_counterexample_rejects_a_composite_q_as_usage_error(capsys):
    assert run(capsys, "counterexample", "--q", "6")[0] == 2
    assert run(capsys, "counterexample", "--q", "")[0] == 2
    # every q is checked before any field is swept
    code, out, err = run(capsys, "counterexample", "--q", "2,6")
    assert (code, out) == (2, "")
    assert "certifying" not in err


def test_counterexample_over_an_oversized_field_is_a_domain_error(capsys):
    code, out, err = run(capsys, "counterexample", "--q", "49")
    assert code == 3
    assert out == ""
    assert "domain error" in err


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


def test_run_config_is_a_frozen_record():
    cfg = RunConfig("weyl", {"family": "A", "rank": 3}, None, "text")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.command = "strata"


def test_output_files_are_written_atomically(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "weyl", "--family", "A", "--rank", "3", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["order"] == 24
    assert list(tmp_path.iterdir()) == [target]
