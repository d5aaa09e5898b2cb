import pytest

from varietyrec import (alpha, codim_bad_set, complex_pr_bounds,
                        difference_closure, dim_low_rank, generic_report,
                        lowrank_minimal, real_pr_bounds, sparse_minimal,
                        standard_pr_facts, VarietySpec)
from varietyrec.cli import main


def test_alpha_examples_and_brute_force():
    assert alpha(3) == 2
    assert alpha(4) == 1
    assert alpha(14) == 3
    for n in range(0, 10 ** 6, 997):  # stride keeps the sweep quick
        assert alpha(n) == bin(n).count("1")
    for n in range(2048):
        assert alpha(n) == bin(n).count("1")


def test_generic_minimum_and_codim():
    assert codim_bad_set(12, 12) == 1
    assert codim_bad_set(15, 12) == 4
    with pytest.raises(ValueError):
        codim_bad_set(11, 12)
    rep = generic_report(12, m=12)
    assert rep.exact == 12 and rep.codim_bad_set == 1


def test_sparse_minimal():
    assert sparse_minimal(8, 2).exact == 4
    assert sparse_minimal(5, 0).exact == 0
    assert sparse_minimal(100, 7).exact == 14
    with pytest.raises(ValueError):
        sparse_minimal(4, 3)
    for d, k in ((8, 2), (10, 5), (9, 4)):
        assert (sparse_minimal(d, k).exact
                == difference_closure(VarietySpec.sparse(d, k)).dimension())


def test_lowrank_minimal_complex():
    assert lowrank_minimal(4, 1, "complex").exact == 12
    for d in range(2, 65):
        for r in range(1, d // 2 + 1):
            assert lowrank_minimal(d, r, "complex").exact == dim_low_rank(d, 2 * r)


def test_lowrank_minimal_real():
    rep = lowrank_minimal(5, 1, "real")
    assert rep.exact == 16 and "2^kappa+r" in rep.regime
    rep = lowrank_minimal(3, 1, "real")
    assert rep.exact == 8 and "2r+1" in rep.regime
    rep = lowrank_minimal(4, 1, "real")
    assert rep.exact is None and rep.upper == 12
    assert any("11" in n for n in rep.notes)
    # d = 2^0 + r covers (2, 1)
    assert lowrank_minimal(2, 1, "real").exact == 4


def test_lowrank_minimal_real_lower_is_the_signal_dimension():
    # no injective linear map lowers the dimension 2dr - r^2 of the
    # signal set, so that is a lower bound wherever no exact value is known
    assert lowrank_minimal(4, 1, "real").lower == 7
    for d in range(1, 9):
        for r in range(d // 2 + 1):
            rep = lowrank_minimal(d, r, "real")
            assert dim_low_rank(d, r) <= rep.lower <= rep.upper
    assert main(["bounds", "low_rank", "3", "0", "--field", "real"]) == 0


def test_lowrank_minimal_real_table():
    # (r, lower, upper, exact) per d over the reals: exact wherever the
    # two sides meet, and the regime names both sides outside the families
    table = {
        1: [(0, 0, 0, 0)],
        2: [(0, 0, 0, 0), (1, 4, 4, 4)],
        3: [(0, 0, 0, 0), (1, 8, 8, 8)],
        4: [(0, 0, 0, 0), (1, 7, 12, None), (2, 16, 16, 16)],
        5: [(0, 0, 0, 0), (1, 16, 16, 16), (2, 24, 24, 24)],
        6: [(0, 0, 0, 0), (1, 11, 20, None), (2, 32, 32, 32),
            (3, 27, 36, None)],
        7: [(0, 0, 0, 0), (1, 13, 24, None), (2, 24, 40, None),
            (3, 48, 48, 48)],
        8: [(0, 0, 0, 0), (1, 15, 28, None), (2, 28, 48, None),
            (3, 39, 60, None), (4, 64, 64, 64)],
    }
    for d, rows in table.items():
        for r, lower, upper, exact in rows:
            rep = lowrank_minimal(d, r, "real")
            assert (rep.lower, rep.upper, rep.exact) == (lower, upper, exact)
            if "exact family" not in rep.regime:
                assert rep.regime == ("real: lower bound 2dr-r^2, "
                                      "generic upper bound 4dr-4r^2"), (d, r)


def test_real_pr_values():
    assert real_pr_bounds(5).exact == 9
    assert real_pr_bounds(6).exact == 10
    rep = real_pr_bounds(7)
    assert rep.exact is None and rep.lower == 8 and rep.upper == 13
    assert real_pr_bounds(4).lower == 4  # no formula below d = 5: lower = d
    for d in range(2, 4099):
        rep = real_pr_bounds(d)
        assert rep.lower <= rep.upper
        if rep.exact is not None:
            assert rep.lower <= rep.exact <= rep.upper
        assert rep.upper == (2 * d - 1 if d % 2 else 2 * d - 2)


def test_complex_pr_values():
    for d, want in ((5, 16), (6, 18), (7, 23), (9, 32), (15, 54), (2, 3)):
        assert complex_pr_bounds(d).exact == want
    rep = complex_pr_bounds(12)
    assert (rep.lower, rep.upper, rep.exact) == (40, 41, None)
    for d in (3, 4):
        rep = complex_pr_bounds(d)
        assert (rep.exact is None and rep.lower == 2 * d - 1
                and rep.upper == 4 * d - 4)


def test_pr_lower_bounds_reach_the_signal_dimension():
    """No injective map has fewer samples than the real dimension of the
    signal set: d for {xx^T} and 2d-1 for {xx*}; a lower bound that meets
    the upper bound is the exact value."""
    for d in range(2, 4099):
        for rep, dim in ((real_pr_bounds(d), d),
                         (complex_pr_bounds(d), 2 * d - 1)):
            assert rep.lower >= dim, (rep.setting, d)
            if rep.lower == rep.upper:
                assert rep.exact == rep.lower, (rep.setting, d)
    assert real_pr_bounds(2).exact == 2


def test_complex_pr_sweep_consistency():
    for d in range(5, 4099):
        rep = complex_pr_bounds(d)
        assert rep.lower <= rep.upper
        if rep.exact is not None:
            assert rep.lower <= rep.exact <= rep.upper
            if "d=2^k+1" in rep.regime or "d=2^k+2 " in rep.regime:
                assert rep.lower == rep.exact == rep.upper


def test_standard_pr_facts():
    rep = standard_pr_facts(4)
    assert rep.lower == 9 and rep.upper == 12 and rep.exact is None
    assert any("11" in n for n in rep.notes)
    assert standard_pr_facts(5).exact == 16
    rep = standard_pr_facts(3)
    assert rep.lower == 7 and rep.upper == 8
    assert standard_pr_facts(2).exact == 4


def test_report_invariants():
    with pytest.raises(ValueError):
        complex_pr_bounds(1)
    with pytest.raises(ValueError):
        real_pr_bounds(1)
    with pytest.raises(ValueError):
        lowrank_minimal(4, 3, "complex")
