import json

import numpy as np
import pytest

import unionbounds as ub
from unionbounds.cli import info_to_json, load_problem, main, parse_report, \
    space_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_hand_n2(tmp_path):
    path = tmp_path / "n2.json"
    path.write_text(json.dumps({
        "schema": "ub-v1", "form": "atoms", "n": 2,
        "atoms": {"1": 0.3, "2": 0.2, "3": 0.2}, "label": "hand-n2",
    }))
    return str(path)


class TestGen:
    def test_gen_then_compute_pipeline(self, tmp_path, capsys):
        out = tmp_path / "space.json"
        code, _, _ = run(capsys, "gen", "--n", "3", "--seed", "7", "--out", str(out))
        assert code == 0
        code, text, _ = run(capsys, "compute", "--input", str(out),
                            "--bounds", "all", "--weights", "gk+")
        assert code == 0
        assert "exact union" in text

    def test_gen_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--n", "4", "--seed", "9", "--out", str(a))
        run(capsys, "gen", "--n", "4", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_gen_n_too_large(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "25", "--seed", "1")
        assert code == 2
        assert "25" in err

    def test_gen_sparse_model(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code, _, _ = run(capsys, "gen", "--n", "4", "--seed", "2",
                         "--model", "sparse:3", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["atoms"]) == 3


class TestCompute:
    def test_table_contains_kat(self, tmp_path, capsys):
        path = write_hand_n2(tmp_path)
        code, text, _ = run(capsys, "compute", "--input", path,
                            "--bounds", "all", "--weights", "gk+")
        assert code == 0
        assert "kat" in text and "0.700000" in text

    def test_lnew4_with_ones_is_yat2(self, tmp_path, capsys):
        path = write_hand_n2(tmp_path)
        code, text, _ = run(capsys, "compute", "--input", path,
                            "--bounds", "lnew4", "--weights", "ones",
                            "--format", "json-lines")
        assert code == 0
        rep = parse_report(text)
        assert [b["name"] for b in rep["bounds"]] == ["lnew4"]
        assert rep["bounds"][0]["value"] == pytest.approx(0.7, abs=1e-12)

    def test_asymmetric_matrix_rejected_with_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema": "ub-v1", "form": "partial", "n": 2,
            "alpha": [0.5, 0.4],
            "pairwise": [[0.5, 0.2], [0.3, 0.4]],
        }))
        code, _, err = run(capsys, "compute", "--input", str(path))
        assert code == 2
        assert "(0,1)" in err and "(1,0)" in err

    def test_unknown_bound_token(self, tmp_path, capsys):
        path = write_hand_n2(tmp_path)
        code, _, err = run(capsys, "compute", "--input", path, "--bounds", "dcx")
        assert code == 2
        assert "dcx" in err

    def test_inconsistent_partial_info_exit_3(self, tmp_path, capsys):
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps({
            "schema": "ub-v1", "form": "partial", "n": 3,
            "alpha": [0.3, 0.3, 0.3],
            "pairwise": [[0.3, 0.3, 0.3], [0.3, 0.3, 0.0], [0.3, 0.0, 0.3]],
        }))
        code, _, err = run(capsys, "compute", "--input", str(path),
                           "--bounds", "opt")
        assert code == 3

    def test_weights_file_source(self, tmp_path, capsys):
        path = write_hand_n2(tmp_path)
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"schema": "ub-v1", "form": "weights",
                                     "c": [1.0, 1.0]}))
        code, text, _ = run(capsys, "compute", "--input", path,
                            "--bounds", "lnew3", "--weights", f"file:{wpath}",
                            "--format", "json-lines")
        assert code == 0
        rep = parse_report(text)
        assert rep["bounds"][0]["value"] == pytest.approx(0.7, abs=1e-12)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "compute", "--input", "/nonexistent.json")
        assert code == 2


class TestCompare:
    def test_zero_trials_usage_error(self, tmp_path, capsys):
        path = write_hand_n2(tmp_path)
        code, _, err = run(capsys, "compare", "--input", path, "--trials", "0")
        assert code == 2

    def test_deterministic_reports(self, tmp_path, capsys):
        path = write_hand_n2(tmp_path)
        outs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = tmp_path / name
            code, _, _ = run(capsys, "compare", "--input", path, "--trials", "300",
                             "--seed", "5", "--format", "json-lines",
                             "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_atoms_input_annotates_validity(self, tmp_path, capsys):
        path = write_hand_n2(tmp_path)
        code, text, _ = run(capsys, "compare", "--input", path, "--trials", "50",
                            "--seed", "2", "--format", "json-lines")
        assert code == 0
        rep = parse_report(text)
        assert rep["header"]["exact_union"] == pytest.approx(0.7, abs=1e-15)
        assert all(b["valid"] for b in rep["bounds"])
        assert rep["stats"]["trials"] == 50

    def test_readme_command(self, tmp_path, capsys):
        # the README's compare line, with fewer trials; a kappa grid that
        # starts with '-' must be attached with '='
        problem = tmp_path / "problem.json"
        assert run(capsys, "gen", "--n", "6", "--seed", "11",
                   "--out", str(problem))[0] == 0
        code, _, err = run(capsys, "compare", "--input", str(problem),
                           "--trials", "20", "--seed", "5", "--kappa=-1:1:0.005",
                           "--format", "json-lines",
                           "--out", str(tmp_path / "compare.jsonl"))
        assert code == 0, err

    def test_kappa_grid_parse_error(self, tmp_path, capsys):
        path = write_hand_n2(tmp_path)
        code, _, err = run(capsys, "compare", "--input", path, "--kappa", "oops")
        assert code == 2


class TestRoundTrips:
    def test_atoms_roundtrip_through_partial_form(self, tmp_path):
        sp = ub.generate_random_space(4, seed=21, model="dirichlet")
        atoms_path = tmp_path / "atoms.json"
        atoms_path.write_text(space_to_json(sp))
        loaded = load_problem(str(atoms_path))
        assert loaded.form == "atoms"
        info = ub.derive_partial_info(loaded.space)
        partial_path = tmp_path / "partial.json"
        partial_path.write_text(info_to_json(info, label="roundtrip"))
        reloaded = load_problem(str(partial_path))
        assert np.allclose(reloaded.info.alpha, info.alpha, atol=1e-12)
        assert np.allclose(reloaded.info.pairwise, info.pairwise, atol=1e-12)

    def test_machine_report_parses_back_with_full_precision(self, tmp_path, capsys):
        path = write_hand_n2(tmp_path)
        code, text, _ = run(capsys, "compute", "--input", path, "--bounds", "all",
                            "--weights", "gk+", "--format", "json-lines")
        assert code == 0
        rep = parse_report(text)
        values = {b["name"]: b["value"] for b in rep["bounds"]}
        assert values["dc"] == ub.dc_bound(load_problem(path).info).value
        assert values["gk"] == 0.625
