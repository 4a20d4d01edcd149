import numpy as np
import pytest

from ncmoment import conic, graphs, qgraph
from ncmoment.conic import SdpaFormatError, SolveStatus
from ncmoment.momentize import (
    LinearConstraint,
    Relation,
    VariableIndex,
    assemble,
    moment_block,
)
from ncmoment.ncwords import (
    EquivalenceMode,
    IDENTITY,
    RewriteSystem,
    vertex,
)

TRC = EquivalenceMode.TRACIAL_SYMMETRIC

GOLDEN_TOY = b"1\n1\n1\n1\n1 1 1 1 1\n"


def toy_problem(objective):
    x = vertex(0)
    rw = RewriteSystem(idempotents=frozenset([x]))
    index = VariableIndex(2, rw, TRC)
    blk = moment_block([IDENTITY], index)
    return assemble(objective, "min", [blk],
                    [LinearConstraint({0: 1.0}, 1.0, Relation.EQ)], index)


def test_golden_toy_bytes():
    assert conic.export_sdpa(toy_problem({})) == GOLDEN_TOY


def test_toy_roundtrip_objective():
    prob = toy_problem({0: 1.0})
    sol = conic.import_solution_sdpa(conic.export_sdpa(prob))
    assert sol.status == SolveStatus.OPTIMAL
    assert abs(sol.objective - 1.0) < 1e-9


def test_coefficients_roundtrip_17_digits():
    prob = toy_problem({0: 1.0 / 3.0})
    parsed = conic.parse_sdpa(conic.export_sdpa(prob))
    # %.17g formatting round-trips doubles exactly
    assert parsed.objective_entries[0][3] == 1.0 / 3.0
    assert parsed.rhs[0] == 1.0


def test_xi_stab_c5_export_structure():
    prob = qgraph.build_stab_problem(graphs.cycle(5), 1)
    parsed = conic.parse_sdpa(conic.export_sdpa(prob))
    assert parsed.block_sizes == [6]
    # 5 entry identifications (repeated moments) + 5 forced zeros (edges)
    # + the normalization row
    assert parsed.m == 11


def test_solved_roundtrip_reproduces_objective():
    prob = qgraph.build_col_problem(graphs.cycle(5), 1)  # minimization
    direct = conic.solve(prob)
    via_file = conic.import_solution_sdpa(conic.export_sdpa(prob))
    assert abs(direct.objective - via_file.objective) < 1e-6


def test_max_sense_exported_negated():
    prob = qgraph.build_stab_problem(graphs.cycle(5), 1)  # maximization
    direct = conic.solve(prob)
    via_file = conic.import_solution_sdpa(conic.export_sdpa(prob))
    assert abs(direct.objective + via_file.objective) < 1e-6


def test_entry_ordering_deterministic():
    prob = qgraph.build_col_problem(graphs.cycle(5), 1)
    data = conic.export_sdpa(prob)
    assert data == conic.export_sdpa(prob)
    rows = [tuple(int(t) for t in line.split()[:4])
            for line in data.decode().splitlines()[4:]]
    assert rows == sorted(rows)


def test_ge_constraints_become_diagonal_slack_block():
    prob = qgraph.build_col_problem(graphs.cycle(5), 1,
                                    qgraph.Strengthening.THETA_PLUS)
    parsed = conic.parse_sdpa(conic.export_sdpa(prob))
    assert parsed.block_sizes[0] == 6
    assert parsed.block_sizes[-1] < 0  # diagonal slack block


def test_parse_error_line_two():
    with pytest.raises(SdpaFormatError, match="line 2"):
        conic.parse_sdpa(b"1\nnot-a-number\n1\n1\n1 1 1 1 1\n")


def test_parse_error_block_sizes_line_three():
    with pytest.raises(SdpaFormatError, match="line 3"):
        conic.parse_sdpa(b"1\n2\n1\n1\n1 1 1 1 1\n")


def test_parse_error_entry_line():
    with pytest.raises(SdpaFormatError, match="line 5"):
        conic.parse_sdpa(b"1\n1\n1\n1\n1 1 1 1\n")


def test_parse_error_lower_triangle_rejected():
    with pytest.raises(SdpaFormatError, match="upper triangle"):
        conic.parse_sdpa(b"1\n1\n2\n1\n1 1 2 1 1\n")


def test_parse_error_matrix_number_range():
    with pytest.raises(SdpaFormatError, match="out of range"):
        conic.parse_sdpa(b"1\n1\n1\n1\n2 1 1 1 1\n")


def test_import_rejects_offdiagonal_in_diagonal_block():
    with pytest.raises(SdpaFormatError, match="diagonal"):
        conic.parse_sdpa(b"1\n1\n-2\n1\n1 1 1 2 1\n")
