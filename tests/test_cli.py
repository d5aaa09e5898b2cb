import json

import numpy as np
import pytest

from varietyrec import (SampleVector, apply, cli, load_ensemble, recovery,
                        save_samples)
from varietyrec.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dims(capsys):
    code, out = _run(capsys, "dims", "low_rank", "4", "1")
    assert code == 0
    assert json.loads(out)["dimension"] == 7
    code, out = _run(capsys, "dims", "sparse", "8", "2")
    assert json.loads(out)["dimension"] == 2
    code, out = _run(capsys, "dims", "low_rank", "4", "4")
    assert json.loads(out)["dimension"] == 16


def test_bounds_single_and_positional(capsys):
    code, out = _run(capsys, "bounds", "--setting", "complex_pr", "--d", "5")
    assert code == 0 and json.loads(out)["exact"] == 16
    code, out = _run(capsys, "bounds", "real_pr", "6")
    assert code == 0 and json.loads(out)["exact"] == 10
    code, out = _run(capsys, "bounds", "low_rank", "4", "1", "--field", "real")
    doc = json.loads(out)
    assert doc["upper"] == 12 and doc["exact"] is None


def test_bounds_sweep_csv(capsys):
    code, out = _run(capsys, "bounds", "--setting", "complex_pr",
                     "--sweep", "5:7")
    lines = out.strip().splitlines()
    assert lines[0] == "d,lower,upper,exact,regime"
    assert lines[1].startswith("5,16,16,16,")


def test_generate_deterministic(capsys, tmp_path):
    code, first = _run(capsys, "generate", "--kind", "gaussian", "--d", "3",
                       "--m", "5", "--seed", "7")
    assert code == 0
    code, second = _run(capsys, "generate", "--kind", "gaussian", "--d", "3",
                        "--m", "5", "--seed", "7")
    assert first == second  # byte-identical output for identical invocations
    path = tmp_path / "e.json"
    code, _ = _run(capsys, "generate", "--kind", "gaussian", "--d", "3",
                   "--m", "5", "--seed", "7", "--out", str(path))
    e = load_ensemble(path)
    assert e.m == 5 and e.d == 3 and e.field == "real"


def test_certify_builtin11(capsys):
    code, out = _run(capsys, "certify", "--ensemble", "builtin11",
                     "--variety", "low_rank:4:1", "--field", "real")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "no_witness_found"
    assert doc["margin"] > 1e-6


def test_certify_generated_threshold(capsys):
    code, out = _run(capsys, "certify", "--d", "4", "--r", "1", "--m", "11",
                     "--field", "complex", "--seed", "1")
    doc = json.loads(out)
    assert doc["status"] == "refuted_with_witness"
    assert doc["witness"]["residual"] < 1e-8
    assert doc["collision"] is not None


def test_certify_generates_from_the_variety(capsys, monkeypatch):
    seen = []
    run_certify = cli.certify
    monkeypatch.setattr(cli, "certify", lambda e, *rest:
                        seen.append(e) or run_certify(e, *rest))
    code, _ = _run(capsys, "certify", "--d", "3", "--m", "5", "--variety",
                   "rank_one_real:3", "--restarts", "20")
    assert code == 0
    # rank_one_real draws real matrices: the real parts of the complex
    # draws of the same seed
    assert (seen[0].field, seen[0].shape) == ("real", "matrix")
    complex_draws = cli.gen_gaussian_matrices(3, 5, "complex", seed=0)
    assert np.array_equal(seen[0].operators, complex_draws.operators.real)
    # an explicit complex field is refused, not read through its real part
    code, _ = _run(capsys, "certify", "--d", "3", "--m", "5", "--variety",
                   "rank_one_real:3", "--field", "complex")
    assert code == 2


def test_recover_roundtrip(capsys, tmp_path):
    epath, ypath = tmp_path / "e.json", tmp_path / "y.json"
    code, _ = _run(capsys, "generate", "--kind", "gaussian", "--d", "4",
                   "--m", "4", "--seed", "3", "--out", str(epath))
    e = load_ensemble(epath)
    x = np.zeros(4)
    x[2] = 2.0
    save_samples(ypath, apply(e, x))
    code, out = _run(capsys, "recover", "--ensemble", str(epath),
                     "--samples", str(ypath), "--variety", "sparse:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"]
    assert np.allclose(doc["estimate"]["re"], x, atol=1e-9)


def test_sweep_csv(capsys):
    code, out = _run(capsys, "sweep", "--setting", "sparse", "--d", "6",
                     "--k", "1", "--m-range", "2:3", "--trials", "5")
    lines = out.strip().splitlines()
    assert lines[0] == "m,trials,successes,success_rate"
    assert len(lines) == 3


def test_verify_subset(capsys):
    code, out = _run(capsys, "verify", "--only", "data,bounds")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"]
    assert {c["name"] for c in doc["checks"]} == {"data", "bounds"}


def test_verify_reference_checks(capsys):
    code, out = _run(capsys, "verify", "--only", "minor,threshold",
                     "--restarts", "20", "--seeds", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"]
    detail = {c["name"]: c["detail"] for c in doc["checks"]}
    assert set(detail) == {"minor", "threshold"}
    assert set(detail["minor"]) == {"min_residual", "restarts"}
    assert detail["minor"]["restarts"] == 20
    assert detail["threshold"] == {"seeds": [
        {"seed": 1, "m11": "refuted_with_witness", "m12": "no_witness_found"}]}


def test_demo_admissibility(capsys):
    code, out = _run(capsys, "demo-admissibility", "--d", "2",
                     "--samples", "500")
    assert code == 0
    doc = json.loads(out)
    assert doc["corner_skew"]["status"] == "vanishes_on_all_samples"
    assert doc["e11"]["status"] == "non_degenerate"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_demo_admissibility_rejects_no_samples(capsys, value):
    code = main(["demo-admissibility", "--samples", value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error:" in captured.err and "n_samples" in captured.err
    assert "vanishes_on_all_samples" not in captured.err


def test_error_exit_code(capsys):
    code, _ = _run(capsys, "certify", "--variety", "low_rank:4:1")
    assert code == 2


def test_malformed_input_exit_code(capsys, tmp_path):
    path = tmp_path / "e.json"
    path.write_text('{"field": "real"}')
    code = main(["certify", "--ensemble", str(path), "--variety", "sparse:2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "operators" in err
    epath, ypath = tmp_path / "g.json", tmp_path / "y.json"
    main(["generate", "--d", "3", "--m", "4", "--out", str(epath)])
    ypath.write_text("{}")
    code = main(["recover", "--ensemble", str(epath), "--samples", str(ypath),
                 "--variety", "sparse:1"])
    assert code == 2 and "error:" in capsys.readouterr().err
    for argv in (["dims", "low_rank", "4"],
                 ["bounds", "sparse", "8"],
                 ["bounds", "--setting", "low_rank", "--d", "4"],
                 ["bounds", "--setting", "generic"],
                 ["sweep", "--setting", "sparse", "--d", "4", "--m-range",
                  "2:3"]):
        code = main(argv)
        assert code == 2 and "missing parameter" in capsys.readouterr().err


def test_certify_empty_search_is_strict_json(capsys):
    code, out = _run(capsys, "certify", "--d", "4", "--m", "12", "--r", "1",
                     "--field", "complex", "--restarts", "0")

    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    doc = json.loads(out, parse_constant=reject)
    assert code == 0
    assert doc["status"] == "inconclusive" and doc["margin"] is None


def test_sweep_override_keeps_solver_defaults(capsys, monkeypatch):
    seen = []

    def fake_recover_phase(e, y, cfg=None, truth=None):
        seen.append(cfg)
        return recovery.RecoveryOutcome(estimate=truth, residual=0.0,
                                        equivalence_distance=0.0,
                                        converged=True)

    monkeypatch.setattr(recovery, "recover_phase", fake_recover_phase)
    _run(capsys, "sweep", "--setting", "phase", "--d", "3", "--m-range",
         "5:5", "--trials", "1", "--max-iters", "2000")
    _run(capsys, "sweep", "--setting", "phase", "--d", "3", "--m-range",
         "5:5", "--trials", "1", "--solver-restarts", "7")
    first, second = seen
    assert (first.max_iters, first.restarts) == (2000, 30)
    assert (second.max_iters, second.restarts) == (2000, 7)


def test_recover_phase_keeps_solver_defaults(capsys, monkeypatch, tmp_path):
    seen = []

    def fake_recover_phase(e, y, cfg=None, truth=None):
        seen.append(cfg)
        return recovery.RecoveryOutcome(estimate=np.zeros(e.d), residual=0.0,
                                        converged=True)

    monkeypatch.setattr(cli, "recover_phase", fake_recover_phase)
    epath, ypath = tmp_path / "e.json", tmp_path / "y.json"
    main(["generate", "--d", "3", "--m", "8", "--out", str(epath)])
    e = load_ensemble(epath)
    save_samples(ypath, apply(e, np.ones(3)))
    code, _ = _run(capsys, "recover", "--ensemble", str(epath), "--samples",
                   str(ypath), "--variety", "phase", "--seed", "4")
    assert code == 0
    (cfg,) = seen
    assert (cfg.restarts, cfg.seed) == (30, 4)


def test_flags_only_where_read(capsys):
    for argv in (["certify", "--d", "4", "--m", "11", "--r", "1",
                  "--format", "csv"],
                 ["dims", "low_rank", "4", "1", "--seed", "3"],
                 ["bounds", "real_pr", "6", "--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_sweep_seed_reaches_solver(capsys):
    argv = ["sweep", "--setting", "phase", "--d", "3", "--m-range", "5:5",
            "--trials", "30", "--field", "complex", "--seed", "3"]
    _, default = _run(capsys, *argv)
    _, spelled_out = _run(capsys, *argv, "--max-iters", "2000",
                          "--solver-restarts", "30")
    assert default == spelled_out


@pytest.mark.parametrize("kind,variety", [("gaussian", "sparse:1"),
                                          ("gaussian", "phase"),
                                          ("gaussian_matrices", "low_rank:1")])
def test_recover_rejects_wrong_sample_count(capsys, tmp_path, kind, variety):
    epath, ypath = tmp_path / "e.json", tmp_path / "y.json"
    main(["generate", "--kind", kind, "--d", "3", "--m", "8",
          "--out", str(epath)])
    save_samples(ypath, SampleVector(np.ones(7)))
    capsys.readouterr()
    code = main(["recover", "--ensemble", str(epath), "--samples", str(ypath),
                 "--variety", variety])
    assert code == 2
    assert "expected 8 samples, got 7" in capsys.readouterr().err


def test_recover_checks_variety_size(capsys, tmp_path):
    paths = {}
    for kind, variety in (("gaussian_matrices", "low_rank"),
                          ("gaussian", "phase")):
        epath = tmp_path / f"{variety}.json"
        ypath = tmp_path / f"y_{variety}.json"
        main(["generate", "--kind", kind, "--d", "3", "--m", "9",
              "--out", str(epath)])
        save_samples(ypath, SampleVector(np.ones(9)))
        paths[variety] = ["--ensemble", str(epath), "--samples", str(ypath)]
    capsys.readouterr()
    for variety, spec, size in (("low_rank", "low_rank:5:1", 5),
                                ("phase", "phase:7", 7)):
        code = main(["recover", *paths[variety], "--variety", spec])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "d=3" in err and f"d={size}" in err
    code = main(["recover", *paths["low_rank"], "--variety", "low_rank"])
    err = capsys.readouterr().err
    assert code == 2 and "needs kind:d:param" in err
    for variety, spec in (("low_rank", "low_rank:3:1"),
                          ("low_rank", "low_rank:1"), ("phase", "phase:3"),
                          ("phase", "phase")):
        assert main(["recover", *paths[variety], "--variety", spec]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_rejects_empty_restart_budget(capsys, value):
    code = main(["verify", "--only", "minor", "--restarts", value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "restarts" in captured.err


@pytest.mark.parametrize("setting", [["phase"], ["low_rank", "--r", "1"]])
def test_sweep_rejects_empty_solver_restarts(capsys, setting):
    code = main(["sweep", "--setting", *setting, "--d", "3", "--m-range",
                 "9:9", "--trials", "1", "--solver-restarts", "0"])
    assert code == 2
    assert "restarts" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-1", "nan", "0"])
def test_certify_rejects_unusable_tolerance(capsys, value):
    # an infinite tolerance accepted any search point as a witness of the
    # injective builtin11 ensemble
    code = main(["certify", "--ensemble", "builtin11", "--variety",
                 "low_rank:1", "--field", "real", "--tol", value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error:" in captured.err and "tol_feas" in captured.err
    assert value in captured.err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_verify_rejects_no_threshold_seeds(capsys, value):
    code = main(["verify", "--only", "threshold", "--seeds", value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error:" in captured.err and "--seeds" in captured.err
    assert "PASS" not in captured.err


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_recover_rejects_unusable_tolerance(capsys, tmp_path, value):
    # an infinite tolerance called random samples a converged fit
    epath, ypath = tmp_path / "e.json", tmp_path / "y.json"
    main(["generate", "--kind", "gaussian_matrices", "--d", "3", "--m", "9",
          "--out", str(epath)])
    save_samples(ypath, SampleVector(np.random.default_rng(0)
                                     .standard_normal(9)))
    capsys.readouterr()
    code = main(["recover", "--ensemble", str(epath), "--samples",
                 str(ypath), "--variety", "low_rank:1", "--tol", value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error:" in captured.err and "tol_fit" in captured.err


@pytest.mark.parametrize("setting", [["phase"], ["low_rank", "--r", "1"]])
def test_sweep_rejects_negative_max_iters(capsys, setting):
    # a negative cap ran no step and scored every trial a failure
    code = main(["sweep", "--setting", *setting, "--d", "3", "--m-range",
                 "9:9", "--trials", "1", "--max-iters", "-5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error:" in captured.err and "max_iters" in captured.err


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


_ENSEMBLE_DOC = {"field": "real", "shape": "matrix", "d": 1, "m": 1,
                 "operators": [{"re": [[1.0]], "im": [[0.0]]}]}


@pytest.mark.parametrize("doc,message", [
    ([_ENSEMBLE_DOC], "an ensemble must be a JSON object"),
    ({**_ENSEMBLE_DOC, "operators": {"re": [[1.0]], "im": [[0.0]]}},
     "an ensemble must be a JSON object whose 'operators' is a list"),
    ({**_ENSEMBLE_DOC, "operators": [[[1.0]]]},
     "an array must be a JSON object"),
    ({**_ENSEMBLE_DOC, "m": [1]}, "malformed ensemble JSON"),
    ({**_ENSEMBLE_DOC, "ranks": 1}, "malformed ensemble JSON"),
    ({**_ENSEMBLE_DOC, "operators": [{"re": {"a": 1}}]},
     "malformed ensemble JSON")])
def test_malformed_ensemble_json_is_refused(capsys, tmp_path, doc, message):
    path = _write_json(tmp_path / "e.json", doc)
    code = main(["certify", "--ensemble", path, "--variety", "low_rank:1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: {message}" in captured.err


def test_samples_y_that_is_a_list_is_refused(capsys, tmp_path):
    epath = tmp_path / "e.json"
    main(["generate", "--d", "3", "--m", "4", "--out", str(epath)])
    ypath = _write_json(tmp_path / "y.json", {"m": 4, "y": [1, 2, 3, 4]})
    capsys.readouterr()
    code = main(["recover", "--ensemble", str(epath), "--samples", ypath,
                 "--variety", "sparse:1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: an array must be a JSON object" in captured.err

