"""The center solve against its dense-block oracle (``dense_center_solve``
in conftest): the same elements in the same order.  Only the blocks that
have a kernel over the point mod P form exact cells, on the rows the rank
core kept; the kernel of those rows is checked against every other row of
the block, and a block whose check fails is solved on all its rows."""

from collections import Counter

import pytest

from qflag import center
from qflag import linalg as la
from qflag.cartan import box, preset
from qflag.enveloping import UAlgebra


def _reported(elements):
    return [z.describe() for z in elements]


def _nullspace_shapes(monkeypatch):
    """The (rows, columns) of every matrix passed to ``nullspace`` from
    now on."""
    shapes = []
    real = la.nullspace

    def spy(a):
        shapes.append((len(a), len(a[0])))
        return real(a)
    monkeypatch.setattr(la, "nullspace", spy)
    return shapes


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_center_solve_matches_the_dense_oracle(name, dense_center):
    datum = preset(name)
    got = center.center_solve(UAlgebra(datum), 2)
    want = dense_center(UAlgebra(datum), 2)
    assert _reported(got) == _reported(want)
    assert [z.hc_image for z in got] == [z.hc_image for z in want]


def test_only_blocks_with_a_kernel_reach_nullspace(monkeypatch, a2):
    """Of the 28 blocks of the A2 solve at height 2, the 25 with full
    column rank mod P form no exact product and no matrix; the other 3
    pass only the rows the rank core kept (56-57 of their 336-340 rows)
    to ``nullspace``, and their kernels pass the check on the other
    rows."""
    shapes = _nullspace_shapes(monkeypatch)
    center.center_solve(UAlgebra(a2), 2)
    assert sorted(shapes) == [(56, 57), (57, 58), (57, 58)]


@pytest.mark.parametrize("name,height", [("A1", 1), ("A1", 2), ("A1", 3),
                                         ("A2", 1)])
def test_center_solve_matches_the_oracle_at_other_heights(name, height,
                                                          dense_center):
    """The kept-row route at the heights the A2 suites do not use: on A1
    at height 3 both blocks with a kernel have nullity 2 (12 kept rows
    against 14 columns), so the check reads two vectors."""
    datum = preset(name)
    got = center.center_solve(UAlgebra(datum), height)
    want = dense_center(UAlgebra(datum), height)
    assert _reported(got) == _reported(want)
    assert [z.hc_image for z in got] == [z.hc_image for z in want]


@pytest.mark.parametrize("drop", ["last", "all"])
def test_an_undercounting_rank_core_falls_back_to_all_rows(drop, monkeypatch,
                                                          a2, dense_center):
    """A rank core that drops one kept row leaves a kernel K larger than
    the block's: the dropped row does not kill K, the check fails, and
    the block is solved on all its rows, so the answer is the oracle's.
    Every block, the 25 of full column rank too, takes that route; a
    block of one column, and every block when the core keeps no row, has
    no kept row and goes there directly."""
    with monkeypatch.context() as mp:
        full = _nullspace_shapes(mp)
        want = _reported(dense_center(UAlgebra(a2), 2))
    real = center._kept_rows_mod_p
    monkeypatch.setattr(center, "_kept_rows_mod_p",
                        lambda cols: real(cols)[:-1] if drop == "last"
                        else [])
    shapes = _nullspace_shapes(monkeypatch)
    assert _reported(center.center_solve(UAlgebra(a2), 2)) == want
    assert len(full) == 28
    assert not Counter(full) - Counter(shapes)
    tried = Counter(shapes) - Counter(full)
    assert sum(tried.values()) == (drop == "last") * sum(
        1 for _rows, cols in full if cols > 1)


def test_an_unevaluable_coefficient_takes_the_exact_route(monkeypatch, a2,
                                                          dense_center):
    """A shape coefficient with no value at the point sends every block
    that uses it to the exact nullspace, which finds no kernel in the
    full-rank ones: the answer is the oracle's."""
    want = _reported(dense_center(UAlgebra(a2), 2))
    algebra = UAlgebra(a2)
    shape = ((0,), (0,))
    poisoned = center._shape_commutator(algebra, shape, "e", 0)[0][3]
    real = la._mod_p
    monkeypatch.setattr(la, "_mod_p",
                        lambda x: None if x == poisoned else real(x))
    shapes = _nullspace_shapes(monkeypatch)
    assert _reported(center.center_solve(algebra, 2)) == want
    assert len(shapes) > 3
    assert {(336, 57), (340, 58)} <= set(shapes)


def test_block_values_mod_p_are_the_evaluated_dense_cells(monkeypatch, a2,
                                                          dense_center):
    """Each block's columns mod P, formed from the shape coefficients'
    values and powers of T without any exact product, are the oracle's
    dense cells evaluated one by one: the same blocks, in the same order,
    with the same columns."""
    blocks = []
    real_null = la.nullspace
    with monkeypatch.context() as mp:
        mp.setattr(la, "nullspace", lambda a: blocks.append(a) or
                   real_null(a))
        dense_center(UAlgebra(a2), 2)
    decided = []
    real_rank = center._kept_rows_mod_p
    monkeypatch.setattr(center, "_kept_rows_mod_p",
                        lambda cols: decided.append([dict(c) for c in cols])
                        or real_rank(cols))
    center.center_solve(UAlgebra(a2), 2)
    assert len(decided) == len(blocks) == 28
    for cols, block in zip(decided, blocks):
        want = [{i: la._mod_p(x) for i, x in enumerate(row)
                 if x.num and la._mod_p(x)} for row in la.transpose(block)]
        # the oracle lays its rows out by row id; compare the rows that
        # hold a nonzero value, in that order
        nonzero = sorted({i for col in want for i in col})
        ids = sorted({r for col in cols for r in col})
        assert len(ids) == len(nonzero)
        at = dict(zip(ids, nonzero))
        assert [{at[r]: x for r, x in col.items()} for col in cols] == want


def test_linkage_scan_evaluates_each_character_once_per_weight(
        monkeypatch, alg2):
    """The A2 linkage scan over the 9 weights of the box [-1, 1]^2 makes
    one ``zeta_at`` call per weight and central element (27), and each
    entry's ``equal`` is the pairwise comparison of the characters."""
    centers = center.center_solve(alg2, 2)
    lams = box((1, 1), lo=(-1, -1))
    calls = []
    real = center.CenterElement.zeta_at
    with monkeypatch.context() as mp:
        mp.setattr(center.CenterElement, "zeta_at",
                   lambda zc, lam: calls.append(lam) or real(zc, lam))
        report = center.zeta_separation_scan(alg2, centers, lams)
    assert len(calls) == len(lams) * len(centers) == 27
    assert report["pass"]
    datum = alg2.datum
    assert [(r["l1"], r["l2"]) for r in report["results"]] == [
        (datum.weight_str(l1), datum.weight_str(l2))
        for l1 in lams for l2 in lams]
    assert [r["equal"] for r in report["results"]] == [
        all(zc.zeta_at(l1) == zc.zeta_at(l2) for zc in centers)
        for l1 in lams for l2 in lams]
    assert [r["linked"] for r in report["results"]] == [
        datum.linked(l1, l2) is not None for l1 in lams for l2 in lams]
