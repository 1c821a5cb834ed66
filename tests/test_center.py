"""The center solve against its dense-block oracle (``dense_center_solve``
in conftest): the same elements in the same order, with only the blocks
that have a kernel over the point mod P built and solved exactly."""

import pytest

from qflag import center
from qflag import linalg as la
from qflag.cartan import preset
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
    column rank mod P form no exact product and no matrix."""
    shapes = _nullspace_shapes(monkeypatch)
    center.center_solve(UAlgebra(a2), 2)
    assert sorted(shapes) == [(336, 57), (340, 58), (340, 58)]


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
    real_rank = center._full_column_rank_mod_p
    monkeypatch.setattr(center, "_full_column_rank_mod_p",
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
