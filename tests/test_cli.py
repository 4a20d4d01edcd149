import json
import os

import numpy as np
import pytest

from ncmoment import corrlab, graphs
from ncmoment.cli import GRAPH_PARAMS, REPORT_SCHEMA, main
from ncmoment.entdim import Correlation, Scenario

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


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def read_report(path):
    with open(path) as fh:
        rep = json.load(fh, parse_constant=_no_constant)
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
    rep = read_report(out)
    assert abs(rep["value"] - 2.5) < 1e-3
    # D5 merges the 21 moment variables of C5 at level 2 into 5 orbits
    assert rep["solver"]["problem"]["num_vars"] == 21
    assert rep["solver"]["problem"]["num_orbits"] == 5
    # and splits the 16 x 16 moment block into one block of size 10: four
    # rows of multiplicity 1 and six of multiplicity 2
    assert rep["solver"]["problem"]["block_sizes"] == [16]
    assert rep["solver"]["problem"]["solver_blocks"] == [
        {"size": 10, "rows_by_multiplicity": {"1": 4, "2": 6}}]


ROOT5 = 5 ** 0.5
C5_LEVEL_ONE = {
    "theta": ROOT5, "theta-plus": ROOT5, "xi-col": ROOT5, "xi-stab": ROOT5,
    "las-col": ROOT5, "las-stab": ROOT5, "xi-sdp": 2.5,
    "gamma-col": 3, "gamma-stab": 2, "lambda": 3,
}


@pytest.mark.parametrize("param", GRAPH_PARAMS)
def test_graph_bound_every_parameter(param, c5_file, tmp_path):
    out = str(tmp_path / "rep.json")
    rc = main(["graph-bound", "--param", param, "--level", "1",
               "--input", c5_file, "--out", out])
    assert rc == 0
    rep = read_report(out)
    assert rep["status"] == "ok"
    assert abs(rep["value"] - C5_LEVEL_ONE[param]) <= 1e-6


@pytest.mark.parametrize("param", ["xi-col", "xi-stab"])
def test_graph_bound_vertex_transitive(param, c5_file, tmp_path):
    # xi_stab(C5) * xi_col(C5) = |V| = 5 at level 1
    out = str(tmp_path / "rep.json")
    rc = main(["graph-bound", "--param", param, "--level", "1",
               "--input", c5_file, "--vertex-transitive", "--out", out])
    assert rc == 0
    check = read_report(out)["diagnostics"]["product_identity"]
    assert check["vertex_transitive"] and check["equality_ok"]


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
    # CHSH level 1 in the Collins-Gisin alphabet: 5 symbols, 8 generators;
    # no symmetry is attached, so every variable is its own orbit and the
    # solver keeps every block
    assert rep["solver"]["problem"] == {
        "num_vars": 20, "num_orbits": 20, "num_eq": 1,
        "block_sizes": [6] + [1] * 8,
        "solver_blocks": [{"size": size, "rows_by_multiplicity": {"1": size}}
                          for size in [6] + [1] * 8]}
    # Schur solves that dropped a direction, reported next to iterations,
    # and why the interior point stopped
    assert (0 <= rep["solver"]["schur_rank_deficient"]
            <= rep["solver"]["iterations"])
    assert rep["solver"]["stop"] == "converged"


def test_command_is_the_parsed_argv(classical_corr_file, tmp_path, monkeypatch):
    # an in-process call reports its own arguments, not the host's
    monkeypatch.setattr("sys.argv", ["host-program", "--some", "flags"])
    out = str(tmp_path / "rep.json")
    argv = ["corr-bound", "--level", "1", "--input", classical_corr_file,
            "--out", out]
    assert main(argv) == 0
    assert read_report(out)["command"] == " ".join(argv)


def test_corr_bound_infeasible_table_reports_json(tmp_path):
    # Alice's marginal for s = 0 depends on t, so the data rows of the
    # level-2 program contradict each other: the margin is -inf, which the
    # report writes as null.
    t = np.zeros((2, 2, 2, 2))
    t[0, 0, 0, 0] = t[1, 1, 0, 1] = t[0, 0, 1, 0] = t[0, 0, 1, 1] = 1.0
    corr = tmp_path / "signalling.json"
    corr.write_text(Correlation(Scenario(2, 2, 2, 2), t).to_json())
    out = str(tmp_path / "rep.json")
    rc = main(["corr-bound", "--level", "2", "--input", str(corr), "--out", out])
    assert rc == 2
    rep = read_report(out)
    assert rep["status"] == "infeasible"
    assert rep["diagnostics"]["margin"] is None


def test_corr_bound_invalid_table(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"A": 2, "B": 2, "S": 2, "T": 2, "P": [[[[1.0]]]]}')
    rc = main(["corr-bound", "--level", "1", "--input", str(p)])
    assert rc == 1


def test_corr_bound_basis_cap_is_an_error(tmp_path, capsys):
    # A level-3 basis over the (4,4,4,4) scenario outgrows BASIS_CAP: the
    # build stops early and the run exits 1 with a message, no traceback.
    corr = tmp_path / "uniform.json"
    corr.write_text(Correlation(Scenario(4, 4, 4, 4),
                                np.full((4, 4, 4, 4), 1 / 16)).to_json())
    rc = main(["corr-bound", "--level", "3", "--input", str(corr)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


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


def test_unknown_parameter_rejected(c5_file, capsys):
    with pytest.raises(SystemExit):
        main(["graph-bound", "--param", "bogus", "--input", c5_file])


def test_corr_bound_loads_neither_numpy_random_nor_scipy(tmp_path):
    # A corr-bound run imports only what it uses: numpy.random costs about
    # 12 ms and a few MB the first time it is touched, and scipy more.
    import subprocess
    import sys

    from ncmoment.corrlab import realize, tsirelson_chsh

    path = tmp_path / "tsirelson.json"
    path.write_text(realize(tsirelson_chsh()).to_json())
    code = (
        "import sys\n"
        "from ncmoment import cli\n"
        f"assert cli.main(['corr-bound', '--level', '2', '--input', {str(path)!r}, "
        f"'--out', {str(tmp_path / 'rep.json')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.random' or m == 'scipy'"
        " or m.startswith(('numpy.random.', 'scipy.'))))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
