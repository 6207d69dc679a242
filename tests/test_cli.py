"""End-to-end checks of the batch command-line surface.

Every test drives ``zipstrata.cli.main`` in-process with an argv list and
inspects the exit code plus the captured result stream.  The contract under
test: results are byte-deterministic, progress stays on stderr, exit code 0
means success or a passing check, 2 flags usage errors, 3 flags domain
errors, 4 flags a property check that ran and failed, and 5 flags a result
that broke an invariant.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from zipstrata import witt
from zipstrata.cli import main
from zipstrata.ffield import FiniteField
from zipstrata.fzip import dieudonne_to_fzip, fzip_to_json
from zipstrata.grouplab import InvariantError

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


def test_strata_of_the_b9_levi_a8_datum_lists_512_labels_and_omits_the_order(capsys):
    code, out, _ = run(capsys, "strata", "--group", "B", "--rank", "9", "--I", "1,2,3,4,5,6,7,8")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["strata"]) == 512
    assert payload["order"] == "omitted:levi-too-large"


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


def test_purity_check_on_the_gl8_2_2_2_2_datum_reports_2520_strata(capsys):
    code, out, _ = run(capsys, "purity-check", "--group", "GL", "--n", "8", "--blocks", "2,2,2,2")
    assert code == 0
    assert "strata checked: 2520" in out
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
    # the chain e < s2 < s2*s1 with its middle cover dropped: s2*s1 covers e
    payload["covers"] = [[0, 2]]
    poset_file.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "purity-check", "--replay", str(poset_file))
    assert code == 4
    assert "result: FAIL" in out
    assert "violation: stratum [2, 1] (length 2) covers [] (length 0)" in out


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda payload: payload["covers"].append([0, 99]),
        lambda payload: payload["covers"].append([-1, 0]),
        lambda payload: payload["strata"][-1].update(length=payload["strata"][-1]["length"] + 5),
        lambda payload: payload["strata"][0].pop("word"),
        lambda payload: payload["covers"].append(5),
    ],
    ids=[
        "cover index past the end",
        "negative cover index",
        "length disagreeing with the word",
        "stratum without a word",
        "cover that is not a pair",
    ],
)
def test_purity_check_rejects_an_inconsistent_replay_file_as_domain_error(capsys, tmp_path, corrupt):
    poset_file = tmp_path / "poset.json"
    run(capsys, "strata", "--group", "A", "--rank", "2", "--I", "1", "--out", str(poset_file))
    payload = json.loads(poset_file.read_text())
    corrupt(payload)
    poset_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "purity-check", "--replay", str(poset_file))
    assert (code, out) == (3, "")
    assert err.startswith("domain error:") and "Traceback" not in err


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


def test_orbits_census_over_f49_runs_past_the_point_guard(capsys):
    # |GL_2(F_49)| = 5 644 800 points pass the guard; its 115 200 cosets of U' do not
    code, out, _ = run(capsys, "orbits", "--n", "2", "--q", "7", "--ext", "1..2")
    assert code == 0
    censuses = json.loads(out)["censuses"]
    assert [c["ext"] for c in censuses] == [1, 2]
    for c in censuses:
        Q = 7 ** c["ext"]
        assert c["group_order"] == (Q * Q - 1) * (Q * Q - Q)
        # |E| = |U'| |L| |U| with L the diagonal torus
        assert c["zip_group_order"] == Q * (Q - 1) ** 2 * Q
        assert sum(o["size"] for o in c["orbits"]) == c["group_order"]
        for orbit in c["orbits"]:
            assert orbit["size"] * orbit["stabilizer_order"] == c["zip_group_order"]
    assert censuses[1]["group_order"] == 5_644_800


# sha256 of stdout on data with Levi blocks, captured before |U'|, |E| and the
# stabilizer orders were read from the datum's radical dimension
ORBITS_DIGESTS = {
    "--n 3 --q 2 --blocks 1,2 --ext 1..2": "6d5f492a136bdf0556647b0af62ca42230ad8c40e85830778bde47d071fe4e46",
    "--n 4 --q 2 --blocks 2,2": "fa032a34f0bd939aea0bb4529c5077fcd09f18f2c621d226cff5efaa5dc6ee75",
}


@pytest.mark.parametrize("flags", list(ORBITS_DIGESTS))
def test_orbits_output_bytes_on_levi_blocks_are_pinned(capsys, flags):
    code, out, _ = run(capsys, "orbits", *flags.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORBITS_DIGESTS[flags]


def test_orbits_rejects_a_composite_field_size_as_usage_error(capsys):
    assert run(capsys, "orbits", "--n", "2", "--q", "6", "--ext", "1")[0] == 2
    assert run(capsys, "orbits", "--n", "2", "--q", "2", "--ext", "3..1")[0] == 2
    assert run(capsys, "orbits", "--n", "2", "--q", "2", "--ext", "x")[0] == 2


def test_orbits_refuses_an_oversized_field_before_building_it(capsys, monkeypatch):
    def no_tables(self):
        raise AssertionError("no field table may be built")

    monkeypatch.setattr(FiniteField, "_build_tables", no_tables)
    code, out, err = run(capsys, "orbits", "--n", "2", "--q", "4194304")
    assert code == 3
    assert out == ""
    assert "4194304 elements" in err


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


@pytest.mark.parametrize("extra", [(), ("--check-reduction",)])
def test_witt_refuses_oversized_sum_tables_before_the_walk(capsys, monkeypatch, extra):
    # GL_1 over F_4096 passes the matrix-space guard, but the walk's sum
    # tables would hold 4096 rows of 4096 entries
    def no_walk(*args):
        raise AssertionError("no display orbit may be walked")

    monkeypatch.setattr(witt, "_display_moves", no_walk)
    code, out, err = run(capsys, "witt", "--p", "2", "--d", "12", "--m", "1", "--n", "1", *extra)
    assert code == 3
    assert out == ""
    assert "sum tables need 16777216 entries" in err


# sha256 of stdout, captured before the display orbits were walked with
# generators; the census and the reduction check must keep these bytes
WITT_DIGESTS = {
    "--p 2 --d 1 --m 3 --n 2": "f3f6b905834d00bad797365d1576b606115a45baf2060b0470cb7089786d1c22",
    "--p 2 --d 1 --m 2 --n 2 --d-block 0": "6f8f4a8236e1c7a52775e0f231f399a890428d2e9aaf7736ce20a6360711c608",
    "--p 3 --d 1 --m 2 --n 2 --check-reduction": "58b7e0d7058e090acb06ed84856b6274963cce4fc0aed71fd9f47e1041109e0f",
    # d >= 2: the polynomial kernel and the coefficient tables
    "--p 2 --d 2 --m 2 --n 2": "ba1405638e7c9403a568262b62b4f4e68512185424dd9106154ed9f08dd9a147",
    "--p 3 --d 2 --m 1 --n 2": "6d06a3db2f278743a751573cdc75fca3d7ee0a1c07436642bcc452f273f411e5",
}


@pytest.mark.parametrize("flags", list(WITT_DIGESTS))
def test_witt_output_bytes_are_pinned(capsys, flags):
    code, out, _ = run(capsys, "witt", *flags.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WITT_DIGESTS[flags]


def test_witt_census_at_level_three_pairs_sizes_with_stabilizers(capsys):
    code, out, _ = run(capsys, "witt", "--p", "2", "--d", "1", "--m", "3", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["group_order"] == 1536
    pairs = [(o["size"], o["stabilizer_order"]) for o in payload["orbits"]]
    assert sorted(pairs) == [(32, 32)] * 16 + [(64, 16)] * 16


def test_invariant_errors_exit_with_code_five_and_no_traceback(capsys, monkeypatch):
    def broken(*args):
        raise InvariantError("the orbits do not exhaust GL_2 over the ring")

    monkeypatch.setattr("zipstrata.cli.orbit_census_level", broken)
    code, out, err = run(capsys, "witt", "--p", "2", "--d", "1", "--m", "2", "--n", "2")
    assert code == 5
    assert out == ""
    assert err.splitlines()[-1] == "invariant error: the orbits do not exhaust GL_2 over the ring"
    assert "Traceback" not in err


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
# output routing
# ---------------------------------------------------------------------------


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


def corrupted_export(tmp_path):
    poset_file = tmp_path / "corrupted.json"
    assert main(["strata", "--group", "A", "--rank", "2", "--I", "1", "--out", str(poset_file)]) == 0
    payload = json.loads(poset_file.read_text())
    payload["covers"] = [[0, 2]]
    poset_file.write_text(json.dumps(payload))
    return str(poset_file)


# each case builds its argv from tmp_path and gives the exit code it must end in
OUT_PARITY_CASES = {
    "weyl text": (lambda tmp: ["weyl", "--family", "A", "--rank", "3"], 0),
    "weyl json": (lambda tmp: ["weyl", "--family", "B", "--rank", "2", "--format", "json"], 0),
    "strata json": (lambda tmp: ["strata", "--group", "B", "--rank", "3", "--I", "1,2"], 0),
    "strata dot": (
        lambda tmp: ["strata", "--group", "GL", "--n", "3", "--blocks", "1,2", "--format", "dot"],
        0,
    ),
    "purity-check": (lambda tmp: ["purity-check", "--group", "B", "--rank", "3", "--I", "2"], 0),
    "purity-check replay of a corrupted export": (
        lambda tmp: ["purity-check", "--replay", corrupted_export(tmp)],
        4,
    ),
    "classify": (lambda tmp: ["classify", write_fzip(tmp, "ord.json", ORDINARY)], 0),
    "orbits": (lambda tmp: ["orbits", "--n", "2", "--q", "3", "--ext", "1,2"], 0),
    "witt": (lambda tmp: ["witt", "--p", "2", "--d", "1", "--m", "2", "--n", "2"], 0),
    "witt check-reduction": (
        lambda tmp: ["witt", "--p", "2", "--d", "1", "--m", "2", "--n", "2", "--check-reduction"],
        0,
    ),
    "counterexample": (lambda tmp: ["counterexample", "--q", "2,3"], 0),
}


@pytest.mark.parametrize("case", list(OUT_PARITY_CASES))
def test_out_files_hold_exactly_the_bytes_stdout_gets(capsys, tmp_path, case):
    make_argv, expected = OUT_PARITY_CASES[case]
    argv = make_argv(tmp_path)
    code, out, _ = run(capsys, *argv)
    assert code == expected
    assert out != ""
    target = tmp_path / "result.out"
    code_to_file, out_to_file, _ = run(capsys, *argv, "--out", str(target))
    assert (code_to_file, out_to_file) == (expected, "")
    assert target.read_bytes() == out.encode("utf-8")
    assert not (tmp_path / "result.out.tmp").exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["weyl", "--family", "D", "--rank", "1"], 2),
        (["orbits", "--n", "2", "--q", "6"], 2),
        (["strata", "--group", "A", "--rank", "2", "--I", "1", "--J", "1"], 3),
        (["counterexample", "--q", "49"], 3),
    ],
)
def test_failed_runs_create_no_out_file(capsys, tmp_path, argv, expected):
    target = tmp_path / "result.out"
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (expected, "")
    assert list(tmp_path.iterdir()) == []


def test_an_invariant_error_creates_no_out_file(capsys, tmp_path, monkeypatch):
    def broken(*args):
        raise InvariantError("the orbits do not exhaust GL_2 over the ring")

    monkeypatch.setattr("zipstrata.cli.orbit_census_level", broken)
    target = tmp_path / "result.out"
    code, out, _ = run(
        capsys, "witt", "--p", "2", "--d", "1", "--m", "2", "--n", "2", "--out", str(target)
    )
    assert (code, out) == (5, "")
    assert list(tmp_path.iterdir()) == []
