import json
import os

import numpy as np
import pytest

from ncmoment import corrlab, graphs
from ncmoment.cli import REPORT_SCHEMA, main
from ncmoment.entdim import Scenario

jsonschema = pytest.importorskip("jsonschema")


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.json"
    p.write_text(graphs.to_json(graphs.cycle(5)))
    return str(p)


@pytest.fixture
def classical_corr_file(tmp_path):
    P = corrlab.random_classical(Scenario(2, 2, 2, 2), 4, seed=21)
    p = tmp_path / "corr.json"
    p.write_text(P.to_json())
    return str(p)


def read_report(path):
    with open(path) as fh:
        rep = json.load(fh)
    jsonschema.validate(rep, REPORT_SCHEMA)
    return rep


def test_graph_bound_theta(c5_file, tmp_path):
    out = str(tmp_path / "rep.json")
    rc = main(["graph-bound", "--param", "theta", "--level", "1",
               "--input", c5_file, "--out", out])
    rep = read_report(out)
    assert rc == 0
    assert abs(rep["value"] - 5 ** 0.5) < 1e-4
    assert rep["status"] == "ok"
    assert rep["input_digest"] is not None


def test_graph_bound_gamma_col_k3(tmp_path):
    gfile = tmp_path / "k3.json"
    gfile.write_text(graphs.to_json(graphs.complete(3)))
    out = str(tmp_path / "rep.json")
    rc = main(["graph-bound", "--param", "gamma-col", "--level", "1",
               "--input", str(gfile), "--out", out])
    assert rc == 0
    assert read_report(out)["value"] == 3


def test_graph_bound_xi_col_level2(c5_file, tmp_path):
    out = str(tmp_path / "rep.json")
    rc = main(["graph-bound", "--param", "xi-col", "--level", "2",
               "--input", c5_file, "--out", out])
    assert rc == 0
    assert abs(read_report(out)["value"] - 2.5) < 1e-3


def test_graph_bound_dimacs_input(tmp_path):
    gfile = tmp_path / "c5.col"
    gfile.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    out = str(tmp_path / "rep.json")
    rc = main(["graph-bound", "--param", "theta", "--level", "1",
               "--input", str(gfile), "--out", out])
    assert rc == 0
    assert abs(read_report(out)["value"] - 5 ** 0.5) < 1e-4


def test_graph_bound_bad_file(tmp_path):
    gfile = tmp_path / "bad.json"
    gfile.write_text('{"n": 3, "edges": [[0, 0]]}')
    rc = main(["graph-bound", "--param", "theta", "--level", "1",
               "--input", str(gfile)])
    assert rc == 1


def test_corr_bound_level_one(classical_corr_file, tmp_path):
    out = str(tmp_path / "rep.json")
    rc = main(["corr-bound", "--level", "1", "--input", classical_corr_file,
               "--out", out])
    rep = read_report(out)
    assert rc == 0
    assert abs(rep["value"] - 1.0) < 1e-4
    # CHSH level 1 in the Collins-Gisin alphabet: 5 symbols, 9 generators
    assert rep["solver"]["problem"] == {
        "num_vars": 20, "num_eq": 1, "block_sizes": [6] + [1] * 9}


def test_corr_bound_invalid_table(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"A": 2, "B": 2, "S": 2, "T": 2, "P": [[[[1.0]]]]}')
    rc = main(["corr-bound", "--level", "1", "--input", str(p)])
    assert rc == 1


def test_corr_bound_export_sdpa(classical_corr_file, tmp_path):
    out = str(tmp_path / "rep.json")
    sdpa = str(tmp_path / "prob.dat-s")
    rc = main(["corr-bound", "--level", "1", "--input", classical_corr_file,
               "--export-sdpa", sdpa, "--out", out])
    assert rc == 0
    from ncmoment import conic

    with open(sdpa, "rb") as fh:
        data = fh.read()
    sol = conic.import_solution_sdpa(data)
    assert abs(sol.objective - read_report(out)["value"]) < 1e-6


def test_gen_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        rc = main(["gen", "--model", "tensor", "--dim", "2",
                   "--scenario", "2,2,2,2", "--seed", "7", "--out", path])
        assert rc == 0
    assert open(a).read() == open(b).read()


def test_gen_then_check_classical_dim_one(tmp_path):
    corr = str(tmp_path / "corr.json")
    main(["gen", "--model", "tensor", "--dim", "1", "--scenario", "2,2,2,2",
          "--seed", "7", "--out", corr])
    rc = main(["check-classical", "--input", corr,
               "--out", str(tmp_path / "rep.json")])
    assert rc == 0


def test_check_classical_nonclassical_exit_code(tmp_path):
    corr = str(tmp_path / "tsirelson.json")
    P = corrlab.realize(corrlab.tsirelson_chsh())
    with open(corr, "w") as fh:
        fh.write(P.to_json())
    out = str(tmp_path / "rep.json")
    rc = main(["check-classical", "--input", corr, "--out", out])
    assert rc == 2
    assert read_report(out)["status"] == "nonclassical"


def test_sync_gram_and_realize(tmp_path):
    fam = str(tmp_path / "fam.json")
    rc = main(["sync", "--random-family", "3,2", "--dim", "2", "--seed", "5",
               "--out", fam])
    assert rc == 0
    real_out = str(tmp_path / "real.json")
    rc = main(["sync", "--realize", "--input", fam, "--out", real_out])
    assert rc == 0
    real = corrlab.Realization.from_json(open(real_out).read())
    real.validate()
    # gram of the corresponding synchronous correlation
    from ncmoment.cli import _family_from_json

    famarr, d = _family_from_json(open(fam).read())
    P = corrlab.synchronous_from_projectors(famarr, d)
    corr = str(tmp_path / "sync_corr.json")
    with open(corr, "w") as fh:
        fh.write(P.to_json())
    gram_out = str(tmp_path / "gram.json")
    rc = main(["sync", "--gram", "--input", corr, "--out", gram_out])
    assert rc == 0
    gram = json.load(open(gram_out))
    assert gram["min_eigenvalue"] >= -1e-9


def test_solver_env_selector(c5_file, tmp_path, monkeypatch):
    out = str(tmp_path / "rep.json")
    monkeypatch.setenv("NCMOMENT_SOLVER", "sdpa-file")
    rc = main(["graph-bound", "--param", "theta", "--level", "1",
               "--input", c5_file, "--out", out])
    assert rc == 0
    assert abs(read_report(out)["value"] - 5 ** 0.5) < 1e-4


def test_unknown_parameter_rejected(c5_file, capsys):
    with pytest.raises(SystemExit):
        main(["graph-bound", "--param", "bogus", "--input", c5_file])
