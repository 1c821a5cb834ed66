"""One V(lam) per algebra, read off one contravariant-form table per weight
space, and Verma modules and V(lam) from two free-word kernels and one
assembler.  The routes the production code replaced live on here as
oracles: the normal-form loop of e_i on the pivot words of a slice, the
normal form of e_i f^w (e^w f_i) that the raising kernel was read from,
the chain of top coefficients that built the evaluation matrix, the Verma
module's own reduce and normal-form loops, the per-pivot reduction of
V(lam)'s f-step and the plus part's right multiplication loop."""

from collections import Counter

import pytest

from qflag import linalg as la
from qflag import weightmod
from qflag.cartan import box, by_height, preset
from qflag.coordring import CoordRing
from qflag.enveloping import UAlgebra, _content
from qflag.errors import DegreeCapError, DominanceError
from qflag.rmatrix import DrinfeldPairing
from qflag.suites import _dominant_weights
from qflag.thetarep import ThetaFormula
from qflag.weightmod import (SimpleFactory, check_module_relations,
                             plus_part, simple, simple_factory, verma)

# every module whose slices the evaluation oracle covers
EVAL_CASES = {
    "A1": [(1,), (2,), (3,), (5,)],
    "A2": list(box((2, 2))) + [(3, 0)],
    "B2": [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)],
    "G2": [(0, 1)],
}


@pytest.fixture(scope="module")
def rings(alg1, alg2):
    out = {"A1": CoordRing(alg1), "A2": CoordRing(alg2)}
    for typ in ("B2", "G2"):
        out[typ] = CoordRing(UAlgebra(preset(typ)))
    return out


def old_e_step(fac, gamma, i):
    """e_i on the drop-gamma slice: straighten e_i f^w for each pivot word
    w, evaluate the torus tail at lam, reduce to classes."""
    datum, alg = fac.datum, fac.algebra
    src = fac.slice(gamma)
    gm = tuple(a - b for a, b in zip(gamma, datum.alpha_root(i)))
    if src is None or gm not in fac.drops:
        return None
    cols = []
    for p in src["pivots"]:
        word = (("e", i),) + tuple(("f", j) for j in src["words"][p])
        acc = {}
        for (fw, nu, ew), c in alg.normal_form_word(word).items():
            if ew:
                continue
            v = c * datum.q_pair(fac.lam, nu)
            acc[fw] = acc[fw] + v if fw in acc else v
        cols.append(fac.reduce_uminus(gm, acc))
    return la.transpose(cols)


def old_top_coefficient(fac, gamma, vec, eword, steps):
    """<v*_lam, e_word . v> along the oracle e-steps (memoized in steps)."""
    datum = fac.datum
    g, v = tuple(gamma), list(vec)
    for i in reversed(eword):
        if (g, i) not in steps:
            steps[(g, i)] = old_e_step(fac, g, i)
        m = steps[(g, i)]
        if m is None:
            return datum.zero()
        g = tuple(a - b for a, b in zip(g, datum.alpha_root(i)))
        v = la.mat_vec(m, v)
    return datum.zero() if any(g) else v[0]


def old_eval_matrix(fac, gamma, steps):
    """The evaluation matrix column by column: the top coefficient of every
    plus-part word on every slice basis vector."""
    datum = fac.datum
    words = fac.algebra.basis(gamma).free_words
    d = fac.slice_dim(gamma)
    cols = []
    for r in range(d):
        vec = [datum.zero()] * d
        vec[r] = datum.one()
        cols.append([old_top_coefficient(fac, gamma, vec, w, steps)
                     for w in words])
    return (la.transpose(cols) if d else [], words, d)


@pytest.mark.parametrize("typ", sorted(EVAL_CASES))
def test_eval_solver_is_the_gram_on_pivot_columns(rings, typ):
    ring = rings[typ]
    datum = ring.datum
    slices = 0
    for lam in EVAL_CASES[typ]:
        fac = ring.factory(lam)
        steps = {}
        for g in sorted(fac.drops, key=by_height):
            mat, words, d = ring.eval_solver(lam, g)
            assert (mat, words, d) == old_eval_matrix(fac, g, steps)
            # evaluations of a vector that mixes every basis vector
            vec = [datum.q_power(r) for r in range(d)]
            expected = [old_top_coefficient(fac, g, vec, w, steps)
                        for w in words]
            assert ring.evaluations(ring.element(lam, g, vec)) == expected
            slices += 1
    assert slices == {"A1": 15, "A2": 79, "B2": 43, "G2": 7}[typ]


def test_evaluations_of_a_zero_weight_space(ring1):
    phi = ring1.element((1,), (2,), [])
    assert ring1.eval_solver((1,), (2,)) == ([], [(0, 0)], 0)
    assert phi.evaluations() == [ring1.datum.zero()]


@pytest.mark.parametrize("typ,lams", [
    ("A2", [(1, 0), (1, 1), (2, 1)]),
    ("B2", [(1, 0), (0, 1), (1, 1)]),
    ("G2", [(0, 1)]),
])
def test_e_step_matches_the_normal_form_loop(rings, typ, lams):
    ring = rings[typ]
    for lam in lams:
        fac = ring.factory(lam)
        for g in fac.drops:
            for i in range(ring.datum.rank):
                new, old = fac.e_step(g, i), old_e_step(fac, g, i)
                assert (new is None) == (old is None)
                assert new is None or la.mat_eq(new, old)


def old_raising_kernel(alg, lam, gamma, i, side):
    """e_i f^w v_lam (left) or v_lam e^w f_i (right) on each free word w of
    drop gamma, by the normal form of the word in U: the terms that do not
    kill v_lam, their torus part evaluated at lam."""
    datum = alg.datum
    src = alg.basis(gamma).free_words
    gm = tuple(a - b for a, b in zip(gamma, datum.alpha_root(i)))
    tgt = alg.basis(gm).free_pos if all(c >= 0 for c in gm) else {}
    out = la.zeros(len(tgt), len(src), datum.l0)
    for col, w in enumerate(src):
        word = (("e", i),) + tuple(("f", j) for j in w) if side == "left" \
            else tuple(("e", j) for j in w) + (("f", i),)
        for (fw, nu, ew), c in alg.normal_form_word(word).items():
            kept, killed = (fw, ew) if side == "left" else (ew, fw)
            if killed:
                continue
            row = out[tgt[kept]]
            row[col] = row[col] + c * datum.q_pair(lam, nu)
    return out


def _kernel_or_cap(kernel, alg, lam, gamma, i, side):
    try:
        return kernel(alg, lam, gamma, i, side)
    except DegreeCapError as exc:
        return str(exc)


@pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
@pytest.mark.parametrize("cap", [None, 3])
def test_raising_kernel_matches_the_normal_form(typ, cap):
    """The commutator formula against the normal form, on both sides, for
    dominant and non-dominant lam; at cap 3 both raise the same
    DegreeCapError on the same drops."""
    datum = preset(typ, max_height=cap)
    alg = UAlgebra(datum)
    lams = box((2,) * datum.rank, lo=(-2,) * datum.rank)
    capped = 0
    for lam in lams[::3] if datum.rank > 1 else lams:
        for gamma in box((4,) * datum.rank, height=4):
            for i in range(datum.rank):
                for side in ("left", "right"):
                    new = _kernel_or_cap(weightmod._raising_kernel, alg, lam,
                                         gamma, i, side)
                    old = _kernel_or_cap(old_raising_kernel, alg, lam,
                                         gamma, i, side)
                    assert new == old, (lam, gamma, i, side)
                    capped += isinstance(new, str)
    assert (capped > 0) == (cap == 3)


def propagated_gram_row(fac, word):
    """Oracle for ``SimpleFactory.gram_row``: the row of one word propagated
    from the empty word, letter by letter, sharing no prefix."""
    datum = fac.datum
    drop = datum.zero_root
    row = [datum.one()]
    for i in word:
        drop = tuple(x + y for x, y in zip(drop, datum.alpha_root(i)))
        step = weightmod.raising_kernel(fac.algebra, fac.lam, drop, i)
        row = [la.row_dot(row, col) for col in zip(*step)]
    return row


@pytest.mark.parametrize("typ", ["A2", "B2"])
def test_gram_rows_match_the_per_word_propagation(typ):
    alg = UAlgebra(preset(typ))
    for lam in _dominant_weights(alg.datum, 2):
        fac = SimpleFactory(alg, lam)
        for gamma in fac.drops:
            for w in alg.basis(gamma).free_words:
                assert fac.gram_row(w) == propagated_gram_row(fac, w), \
                    (lam, w)


def test_a_slice_reads_no_full_character(monkeypatch, alg2):
    # the weight spaces of V(lam) are sized one drop at a time
    built = []
    monkeypatch.setattr(weightmod, "weyl_character",
                        lambda *a: built.append(a))
    fac = SimpleFactory(alg2, (3, 2))
    assert [fac.slice_dim(g) for g in [(0, 0), (1, 0), (1, 1), (9, 9)]] == \
        [1, 1, 2, 0]
    assert fac.e_step((1, 1), 0) is not None and not built


def old_left_verma_e(alg, lam, depth, i):
    """The left Verma module's e_i by its own normal-form loop."""
    datum = alg.datum
    drops = sorted(box(depth), key=by_height)
    slots = {}
    for g in drops:
        for w in alg.basis(g).free_words:
            slots[(g, w)] = len(slots)
    em = la.zeros(len(slots), len(slots), datum.l0)
    for (g, w), col in slots.items():
        word = (("e", i),) + tuple(("f", j) for j in w)
        for (fw, nu, ew), c in alg.normal_form_word(word).items():
            if ew:
                continue
            row = slots[(_content(fw, datum.rank), fw)]
            em[row][col] = em[row][col] + c * datum.q_pair(lam, nu)
    return em


@pytest.mark.parametrize("case", [
    ("A1", (0,), (4,)), ("A1", (3,), (4,)), ("A1", (-2,), (3,)),
    ("A2", (1, 0), (2, 2)), ("A2", (-1, 2), (2, 1)), ("A2", (0, -3), (1, 2)),
])
def test_left_verma_e_matches_its_normal_form_loop(alg1, alg2, case):
    typ, lam, depth = case
    alg = alg1 if typ == "A1" else alg2
    mod = verma(alg, lam, depth)
    for i in range(alg.datum.rank):
        assert la.mat_eq(mod.gen_matrix("e", i),
                         old_left_verma_e(alg, lam, depth, i))


def test_one_module_per_algebra_and_weight(a2, alg2, ring2):
    for lam in [(0, 0), (1, 0), (1, 1)]:
        mod = simple(alg2, lam)
        assert simple(alg2, list(lam)) is mod
        assert ring2.module(lam) is mod
        assert CoordRing(alg2).module(lam) is mod
        assert ring2.factory(lam) is simple_factory(alg2, lam) is mod.factory
    assert simple(UAlgebra(a2), (1, 0)) is not simple(alg2, (1, 0))
    with pytest.raises(DominanceError, match="grade"):
        ring2.module((1, -1))
    with pytest.raises(DominanceError):
        simple(alg2, (1, -1))


def test_one_gram_per_algebra_weight_and_drop(monkeypatch, a2):
    grams, kernels = Counter(), Counter()
    real_slice = SimpleFactory._slice

    def count_slice(self, gamma):
        grams[(id(self.algebra), self.lam, gamma)] += 1
        return real_slice(self, gamma)

    def spy(name):
        real_kernel = getattr(weightmod, name)

        def count_kernel(algebra, *key):
            kernels[(name, id(algebra)) + key] += 1
            return real_kernel(algebra, *key)
        return count_kernel

    monkeypatch.setattr(SimpleFactory, "_slice", count_slice)
    for name in ("_raising_kernel", "_deepening_kernel"):
        monkeypatch.setattr(weightmod, name, spy(name))
    alg = UAlgebra(a2)
    r1, r2 = CoordRing(alg), CoordRing(alg)
    lams = [(1, 0), (0, 1), (1, 1)]
    for lam in lams:
        for ring in (r1, r2):
            for g in ring.factory(lam).drops:
                ring.eval_solver(lam, g)
            ring.module(lam)
        simple(alg, lam)
    r2.mult(*r1.grade_basis((1, 0))[:2])
    for side in ("left", "right"):
        verma(alg, (1, 0), (1, 1), side=side)
        verma(alg, (1, 0), (2, 1), side=side)
    # both kernels on both sides, and the verma's kernels shared with V(lam)
    assert {(k[0], k[-1]) for k in kernels} == {
        (name, side) for name in ("_raising_kernel", "_deepening_kernel")
        for side in ("left", "right")}
    # every slice of every module was read, and each Gram built once
    assert {(id(alg), lam, g) for lam in lams
            for g in simple_factory(alg, lam).drops} <= set(grams)
    assert set(grams.values()) == {1} and set(kernels.values()) == {1}


# -- the two free-word kernels and the assembler against the loops they
# replaced: the Verma module's own reduce and normal-form loops, the
# per-pivot reduction of V(lam)'s f-step and the plus part's right
# multiplication ----------------------------------------------------------

def old_verma(alg, lam, depth, side):
    """The Verma module's layout, labels and generator matrices by its own
    loops: f_i (left) or e_i (right) reduced word by word, and the raising
    letter by a normal-form loop on each side."""
    datum = alg.datum
    drops = sorted(box(depth), key=by_height)
    slots, weights, labels = {}, [], []
    for g in drops:
        for w in alg.basis(g).free_words:
            slots[(g, w)] = len(weights)
            weights.append(datum.weight_sub_root(lam, g))
            tag = "".join(str(i + 1) for i in w)
            labels.append(("f" + tag if tag else "v") + "@"
                          + datum.weight_str(weights[-1]))
    n = len(weights)
    gen = {}
    for i in range(datum.rank):
        ai = datum.alpha_root(i)
        fm, em = la.zeros(n, n, datum.l0), la.zeros(n, n, datum.l0)
        deepen = fm if side == "left" else em
        for g in drops:
            gp = tuple(a + b for a, b in zip(g, ai))
            if all(x <= d for x, d in zip(gp, depth)):
                for w in alg.basis(g).free_words:
                    word = (i,) + w if side == "left" else w + (i,)
                    for wb, c in alg.basis(gp).reduce_word(word).items():
                        deepen[slots[(gp, wb)]][slots[(g, w)]] = c
            if side == "right":
                for w in alg.basis(g).free_words:
                    word = tuple(("e", j) for j in w) + (("f", i),)
                    for (fw, nu, ew), c in \
                            alg.normal_form_word(word).items():
                        if fw:
                            continue
                        row = slots[(_content(ew, datum.rank), ew)]
                        col = slots[(g, w)]
                        fm[row][col] = fm[row][col] + \
                            c * datum.q_pair(lam, nu)
        if side == "left":
            em = old_left_verma_e(alg, lam, depth, i)
        gen[("f", i)], gen[("e", i)] = fm, em
    return weights, labels, gen


def old_f_step(fac, gamma, i):
    """f_i on the drop-gamma slice: reduce the word i+w of each pivot word
    w in the free basis of the deeper drop, then to classes."""
    datum, alg = fac.datum, fac.algebra
    src = fac.slice(gamma)
    gp = tuple(a + b for a, b in zip(gamma, datum.alpha_root(i)))
    if src is None or gp not in fac.drops:
        return None
    cols = [fac.reduce_uminus(gp, alg.basis(gp).reduce_word(
        (i,) + src["words"][p])) for p in src["pivots"]]
    return la.transpose(cols)


def old_simple(fac):
    """V(lam)'s slots, labels and generator matrices, scattered from the
    oracle steps."""
    datum = fac.datum
    drops = sorted(fac.drops, key=by_height)
    slot, weights, labels = {}, [], []
    for g in drops:
        for r in range(fac.slice_dim(g)):
            slot[(g, r)] = len(weights)
            weights.append(datum.weight_sub_root(fac.lam, g))
            labels.append(f"v{datum.weight_str(weights[-1])}#{r}")
    n = len(weights)
    gen = {}
    for i in range(datum.rank):
        ai = datum.alpha_root(i)
        for kind, sign, step in (("f", 1, old_f_step), ("e", -1, old_e_step)):
            m = la.zeros(n, n, datum.l0)
            for g in drops:
                tgt = tuple(a + sign * b for a, b in zip(g, ai))
                block = step(fac, g, i)
                for r in range(fac.slice_dim(g)):
                    for rr in range(len(block or [])):
                        m[slot[(tgt, rr)]][slot[(g, r)]] = block[rr][r]
            gen[(kind, i)] = m
    return slot, weights, labels, gen


def old_m_right(plus, i):
    """Right multiplication by e_i on the plus part, word by word."""
    alg = plus.algebra
    out = la.zeros(plus.dim, plus.dim, alg.datum.l0)
    for col, (g, r) in enumerate(plus.slot_keys):
        gp = tuple(a + b for a, b in zip(g, alg.datum.alpha_root(i)))
        if (gp, 0) not in plus.slot:
            continue
        tgt = alg.basis(gp)
        for wb, c in tgt.reduce_word(alg.basis(g).free_words[r]
                                     + (i,)).items():
            out[plus.slot[(gp, tgt.free_pos[wb])]][col] = c
    return out


def old_n_conj(plus, mu):
    """Torus conjugation by k_mu on the plus part: q^{(mu, deg)} per word."""
    datum = plus.datum
    return la.diagonal([datum.q_pair(mu, datum.root_to_weight(g))
                        for g, _r in plus.slot_keys], datum.l0)


def _gen_equal(new, old):
    assert list(new) == list(old)
    return all(la.mat_eq(new[k], old[k]) for k in old)


@pytest.mark.parametrize("typ,lam,depth", [
    ("A1", (0,), (4,)), ("A1", (1,), (4,)), ("A1", (3,), (4,)),
    ("A1", (-2,), (3,)),
    ("A2", (0, 0), (2, 2)), ("A2", (1, 0), (2, 2)), ("A2", (1, 1), (2, 1)),
    ("A2", (-1, 2), (2, 1)), ("A2", (0, -3), (1, 2)),
    ("B2", (1, 0), (1, 1)), ("B2", (0, 1), (1, 2)), ("B2", (1, 1), (2, 1)),
    ("G2", (0, 1), (1, 1)),
])
@pytest.mark.parametrize("side", ["left", "right"])
def test_verma_matches_its_reduce_and_normal_form_loops(rings, typ, lam,
                                                        depth, side):
    alg = rings[typ].algebra
    mod = verma(alg, lam, depth, side=side)
    weights, labels, gen = old_verma(alg, lam, depth, side)
    assert mod.index_weights == weights and mod.labels == labels
    assert _gen_equal(mod.gen, gen)
    assert mod.name == f"T{'r' if side == 'right' else ''}" \
        f"({alg.datum.weight_str(lam)})|{depth}"


@pytest.mark.parametrize("typ,lams", [
    ("A1", [(0,), (1,), (3,)]),
    ("A2", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]),
    ("B2", [(1, 0), (0, 1), (1, 1)]),
    ("G2", [(0, 1)]),
])
def test_simple_matches_the_per_pivot_reduction(rings, typ, lams):
    for lam in lams:
        fac = rings[typ].factory(lam)
        for g in fac.drops:
            for i in range(fac.datum.rank):
                new, old = fac.f_step(g, i), old_f_step(fac, g, i)
                assert (new is None) == (old is None)
                assert new is None or la.mat_eq(new, old)
        mod = fac.build()
        slot, weights, labels, gen = old_simple(fac)
        assert mod.slot == slot and mod.slot_keys == list(slot)
        assert mod.index_weights == weights and mod.labels == labels
        assert _gen_equal(mod.gen, gen)
        assert mod.name == f"V({fac.datum.weight_str(lam)})"


@pytest.mark.parametrize("typ,depth", [("A1", 4), ("A2", 3), ("B2", 3),
                                       ("G2", 3)])
def test_m_right_is_the_right_deepening_kernel(rings, typ, depth):
    alg = rings[typ].algebra
    formula = ThetaFormula(plus_part(alg, depth), DrinfeldPairing(alg))
    for i in range(alg.datum.rank):
        assert la.mat_eq(formula.m_right(i), old_m_right(formula.plus, i))


@pytest.mark.parametrize("typ,depth,dim", [("A1", 4, 5), ("A2", 3, 13),
                                           ("B2", 3, 14), ("G2", 3, 14)])
def test_plus_part_is_the_right_verma_module_cut_at_a_height(
        rings, typ, depth, dim):
    """The plus part keeps the layout of the truncation it replaced
    (degrees by height, free words within a degree), its e_i and k blocks
    are right multiplication and torus conjugation, and it is a module."""
    alg = rings[typ].algebra
    datum = alg.datum
    plus = plus_part(alg, depth)
    degrees = sorted(box((depth,) * datum.rank, height=depth), key=by_height)
    assert plus.slot_keys == [(g, r) for g in degrees
                              for r in range(len(alg.basis(g).free_words))]
    assert plus.dim == dim and plus.side == "right"
    assert plus.index_weights == [datum.weight_sub_root(datum.zero_weight, g)
                                  for g, _r in plus.slot_keys]
    assert check_module_relations(plus) == []
    formula = ThetaFormula(plus, DrinfeldPairing(alg))
    for i in range(datum.rank):
        assert la.mat_eq(formula.m_right(i), old_m_right(plus, i))
    for mu in [datum.alpha(i) for i in range(datum.rank)] + [datum.rho]:
        assert formula.n_conj(mu) == old_n_conj(plus, mu)
