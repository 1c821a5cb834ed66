from fractions import Fraction

import pytest

from qflag import linalg as la
from qflag import rmatrix, suites, weightmod
from qflag.cartan import (box, kostant_dim, preset, verma_character,
                          weyl_character)
from qflag.enveloping import UAlgebra
from qflag.errors import DominanceError, SideMismatchError, TruncationError
from qflag.scalars import QScalar, exp_t_coefficient
from qflag.weightmod import (braid_on_module, braid_word,
                             check_module_relations, module_map_commutes,
                             restricted_dual, simple, tensor,
                             transpose_braid, verma)


def test_verma_character_and_relations(alg1):
    mod = verma(alg1, (0,), (3,))
    assert mod.character() == verma_character(alg1.datum, (0,), (3,))
    assert check_module_relations(mod) == []


def test_verma_depth_zero(alg1):
    mod = verma(alg1, (5,), (0,))
    assert mod.dim == 1 and mod.index_weights == [(5,)]


def test_verma_singular_action(alg1):
    # e(f v_0) evaluates the commutator at the trivial character: zero
    mod = verma(alg1, (0,), (2,))
    v = mod.basis_vector(mod.distinguished["highest"])
    fv = la.mat_vec(mod.act(alg1.f(0)), v)
    efv = la.mat_vec(mod.act(alg1.e(0)), fv)
    assert all(c.is_zero() for c in efv)


def test_right_verma(alg2):
    mod = verma(alg2, (1, 0), (2, 2), side="right")
    assert mod.side == "right"
    assert check_module_relations(mod) == []
    assert mod.character() == verma_character(alg2.datum, (1, 0), (2, 2))


def test_simple_examples(alg1, alg2):
    triv = simple(alg1, (0,))
    assert triv.dim == 1
    for n in range(1, 7):
        mod = simple(alg1, (n,))
        assert mod.dim == n + 1
        assert all(mod.weight_dim(w) == 1 for w in mod.weights())
    adj = simple(alg2, (1, 1))
    assert adj.dim == 8
    with pytest.raises(DominanceError):
        simple(alg1, (-2,))


def test_simple_matches_weyl_character(alg2):
    for lam in [(1, 0), (0, 2), (2, 1)]:
        assert simple(alg2, lam).character() == \
            weyl_character(alg2.datum, lam)


def test_simple_highest_vector_singular(alg2):
    mod = simple(alg2, (1, 1))
    v = mod.basis_vector(mod.distinguished["highest"])
    for i in range(2):
        assert all(c.is_zero() for c in la.mat_vec(mod.act(alg2.e(i)), v))


def test_restricted_dual(alg1):
    mod = simple(alg1, (2,))
    dual = restricted_dual(mod)
    assert dual.side == "right"
    assert dual.character() == mod.character()
    double = restricted_dual(dual)
    for key in mod.gen:
        assert la.mat_eq(double.gen[key], mod.gen[key])
    assert check_module_relations(dual) == []
    triv = simple(alg1, (0,))
    assert restricted_dual(triv).dim == 1


def test_dual_of_truncated_verma(alg1):
    mod = verma(alg1, (1,), (3,))
    dual = restricted_dual(mod)
    assert dual.character() == mod.character()
    assert check_module_relations(dual) == []


def test_dual_verma_construction(alg1):
    # the left module dual to the right Verma: same character, a vector
    # generating it freely under the raising half, relations exact
    right = verma(alg1, (2,), (3,), side="right")
    dual = restricted_dual(right)
    assert dual.side == "left"
    assert dual.character() == verma_character(alg1.datum, (2,), (3,))
    assert check_module_relations(dual) == []
    # the raising generators act injectively below the top (cofree shape)
    e = dual.gen[("e", 0)]
    for col in range(dual.dim):
        if dual.index_weights[col] == (2,):
            continue
        assert any(not e[r][col].is_zero() for r in range(dual.dim))


def test_tensor(alg1):
    v = simple(alg1, (1,))
    triv = simple(alg1, (0,))
    unit = tensor(triv, v)
    assert unit.character() == v.character()
    vv = tensor(v, v)
    assert vv.character() == v.character() * v.character()
    assert vv.character() == simple(alg1, (2,)).character() \
        + simple(alg1, (0,)).character()
    assert check_module_relations(vv) == []
    # weight of highest (x) highest is the sum
    assert vv.index_weights[0] == (2,)
    with pytest.raises(SideMismatchError):
        tensor(v, restricted_dual(v))


def test_braid_examples(alg1):
    triv = simple(alg1, (0,))
    assert la.mat_eq(braid_on_module(triv, 0), la.identity(1, alg1.datum.l0))
    v = simple(alg1, (1,))
    t = braid_on_module(v, 0)
    hw = v.distinguished["highest"]
    img = la.mat_vec(t, v.basis_vector(hw))
    # v_w goes to a nonzero multiple of f v_w
    low = v.weight_indices((-1,))[0]
    assert not img[low].is_zero()
    assert img[hw].is_zero()
    tinv = braid_on_module(v, 0, inverse=True)
    assert la.mat_eq(la.mat_mul(t, tinv), la.identity(2, alg1.datum.l0))


def test_braid_weight_transport(alg2):
    mod = simple(alg2, (1, 0))
    d = alg2.datum
    for w in d.all_weyl_words():
        tw = braid_word(mod, w)
        for col in range(mod.dim):
            tgt = d.weyl_act(w, mod.index_weights[col])
            for row in range(mod.dim):
                if not tw[row][col].is_zero():
                    assert mod.index_weights[row] == tgt


def test_braid_word_reduced_independence(alg2):
    # composed along each literal word: braid_word canonicalizes its word,
    # so it would take one route for both
    mod = simple(alg2, (1, 0))
    assert la.mat_eq(suites._braid_along(mod, (0, 1, 0)),
                     suites._braid_along(mod, (1, 0, 1)))
    assert la.mat_eq(braid_word(mod, ()), la.identity(mod.dim, alg2.datum.l0))


def test_braid_refuses_truncated(alg1):
    mod = verma(alg1, (0,), (2,))
    with pytest.raises(TruncationError):
        braid_on_module(mod, 0)


def test_transpose_braid_round_trip(alg1):
    vr = restricted_dual(simple(alg1, (2,)))
    t = transpose_braid(vr, (0,))
    tinv = transpose_braid(vr, (0,), inverse=True)
    assert la.mat_eq(la.mat_mul(t, tinv), la.identity(vr.dim, alg1.datum.l0))


def test_transpose_braid_pairing_convention(alg1):
    # <tT(v), v*> = <v, T(v*)> against the dual simple module
    v = simple(alg1, (1,))
    vr = restricted_dual(v)
    t_mod = braid_word(v, (0,))
    t_dual = transpose_braid(vr, (0,))
    assert la.mat_eq(t_dual, la.transpose(t_mod))


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(weightmod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(weightmod, name, counted)
    return calls


def _refuse_inverse(monkeypatch):
    def refuse(mat):
        raise AssertionError("a braid operator inverted a matrix")
    monkeypatch.setattr(la, "inverse", refuse)


def test_inverse_braid_builds_no_exponential(monkeypatch, alg2):
    _refuse_inverse(monkeypatch)
    exps = _count_calls(monkeypatch, "_exp_matrix")
    builds = _count_calls(monkeypatch, "_braid_operator")
    # a double dual is a fresh left module with an empty memo
    mod = restricted_dual(restricted_dual(simple(alg2, (1, 0))))
    tinv = braid_on_module(mod, 0, inverse=True)
    assert exps == []  # the closed formula, no forward operator
    assert builds == [(mod, 0, True)]
    assert braid_on_module(mod, 0, inverse=True) is tinv
    t = braid_on_module(mod, 0)
    assert exps == []
    monkeypatch.undo()
    assert la.mat_eq(tinv, la.inverse(t))


def triple_exponential_forms(mod, i):
    """Both triple-exponential forms of T_i on a left module (Jantzen,
    *Lectures on Quantum Groups*, ch. 8), each as exp(c) exp(b) exp(a) H
    with H acting first: the route production replaced by Lusztig's
    closed formula, kept as its oracle."""
    alg, datum = mod.algebra, mod.datum
    di = datum.d(i)
    qi = datum.q_power(di)
    h = la.diagonal([datum.q_power(Fraction(di * w[i] * (w[i] + 1), 2))
                     for w in mod.index_weights], datum.l0)
    e_i, f_i = alg.e(i), alg.f(i)
    ki, kiv = alg.k_alpha(i, 1), alg.k_alpha(i, -1)

    def exp(x):
        return weightmod._exp_matrix(mod.act(x), -di, datum.l0)

    form1 = la.ordered_product(
        (h, exp((kiv * f_i).scale(qi.inverse())), exp(-e_i),
         exp((ki * f_i).scale(qi))), mod.dim, datum.l0, left=True)
    form2 = la.ordered_product(
        (h, exp(-(ki * e_i).scale(qi.inverse())), exp(f_i),
         exp(-(kiv * e_i).scale(qi))), mod.dim, datum.l0, left=True)
    return form1, form2


def braid_modules(alg):
    """Every V(lam) with lam in the box of side 2 that fits under the cap,
    V (x) V for the first fitting fundamental V, and on B2 the hexagon's
    carrier V(w2) (x) V(w1)."""
    datum = alg.datum
    mods = [simple(alg, lam) for lam in box((2,) * datum.rank)
            if suites._constructible(datum, lam)]
    v = simple(alg, suites._fitting_fundamental(datum))
    mods.append(tensor(v, v))
    if datum.name == "B2":
        mods.append(tensor(simple(alg, (0, 1)), simple(alg, (1, 0))))
    return mods


@pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
def test_braid_matches_both_forms_and_the_matrix_inverse(typ, algebras):
    alg = algebras[typ]
    for mod in braid_modules(alg):
        for i in range(alg.datum.rank):
            form1, form2 = triple_exponential_forms(mod, i)
            t = braid_on_module(mod, i)
            assert la.mat_eq(t, form1) and la.mat_eq(t, form2)
            assert la.mat_eq(braid_on_module(mod, i, inverse=True),
                             la.inverse(form1))


@pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
def test_braid_operators_invert_nothing_and_build_one_form(monkeypatch,
                                                           typ):
    _refuse_inverse(monkeypatch)
    exps = _count_calls(monkeypatch, "_exp_matrix")
    builds = _count_calls(monkeypatch, "_braid_operator")
    # a fresh algebra: nothing memoized on its modules yet
    alg = UAlgebra(preset(typ))
    datum = alg.datum
    w0 = datum.longest_word()
    v = simple(alg, suites._fitting_fundamental(datum))
    for inverse in (False, True):
        braid_word(v, w0, inverse=inverse)
        transpose_braid(restricted_dual(v), w0, inverse=inverse)
    rmatrix.root_vectors(tensor(v, v), "e")
    # each operator built once, by the closed formula
    assert {inverse for _mod, _i, inverse in builds} == {False, True}
    assert len(builds) == len(set(builds))
    assert exps == []


@pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
def test_braid_operators_form_no_matrix_product(monkeypatch, typ):
    # a fresh algebra, its modules built before the refusals
    alg = UAlgebra(preset(typ))
    mods = braid_modules(alg)

    def refuse(*args):
        raise AssertionError("a braid operator formed a matrix product")

    for name in ("mat_mul", "inverse", "kron", "running_products"):
        monkeypatch.setattr(la, name, refuse)
    monkeypatch.setattr(weightmod, "_exp_matrix", refuse)
    for mod in mods:
        for i in range(alg.datum.rank):
            for inverse in (False, True):
                braid_on_module(mod, i, inverse=inverse)


def _point(alg, weight, gen):
    """A one-dimensional left module of the given weight whose e and f
    act by the 1x1 matrix gen."""
    return weightmod.WeightModule(
        alg, "left", [weight], {(kind, 0): gen for kind in "ef"},
        lambda _w: True, exact=True)


def test_braid_of_a_non_nilpotent_module_raises(alg1):
    mod = _point(alg1, (0,), la.identity(1, alg1.datum.l0))
    for inverse in (False, True):
        with pytest.raises(TruncationError, match="not nilpotent"):
            braid_on_module(mod, 0, inverse=inverse)


def test_module_map_reads_k_as_weight_equality(monkeypatch, alg1):
    """M k_lam = k_lam M holds exactly when every nonzero cell of M joins
    two equal weights; the check reads that off the cells and forms no k
    matrix.  The modules have e = f = 0, so only the k part can fail."""
    l0 = alg1.datum.l0
    zero = la.zeros(1, 1, l0)
    one = [[alg1.datum.one()]]

    def refuse(self, lam):
        raise AssertionError("k matrix built")

    monkeypatch.setattr(weightmod.WeightModule, "k_matrix", refuse)
    at0, at2, other2 = (_point(alg1, w, zero) for w in [(0,), (2,), (2,)])
    assert module_map_commutes(at2, other2, one)
    # one cell that crosses weights
    assert not module_map_commutes(at0, at2, one)
    assert module_map_commutes(at0, at2, zero)
    # on V(1): the identity passes, and a cell from the lowest to the
    # highest weight vector added to it fails
    v = simple(alg1, (1,))
    ident = la.identity(v.dim, l0)
    assert module_map_commutes(v, v, ident)
    hi, lo = v.weight_indices((1,))[0], v.weight_indices((-1,))[0]
    ident[hi][lo] = alg1.datum.one()
    assert not module_map_commutes(v, v, ident)


def test_transpose_braid_memoizes_dual(monkeypatch, alg2):
    builds = _count_calls(monkeypatch, "_braid_operator")
    vr = restricted_dual(simple(alg2, (1, 0)))
    first = transpose_braid(vr, (0,))
    for _ in range(2):
        assert la.mat_eq(transpose_braid(vr, (0,)), first)
    assert len(builds) == 1


def test_sufficiently_large_bijectivity(alg1):
    # the plus/minus degree piece maps onto deep weight spaces once the
    # highest weight clears the drop
    d = alg1.datum
    for gamma in [(1,), (2,), (3,)]:
        for n in range(gamma[0], 7):
            mod = simple(alg1, (n,))
            assert mod.weight_dim(d.weight_sub_root((n,), gamma)) \
                == kostant_dim(d, gamma)


def test_w_action_on_tensor_highest_line(alg2):
    # T_w^{-1}(ell (x) v) = T_w^{-1}(ell) (x) T_w^{-1}(v) for ell highest
    d = alg2.datum
    ell_mod = simple(alg2, (1, 0))
    v_mod = simple(alg2, (0, 1))
    big = tensor(ell_mod, v_mod)
    w0 = d.longest_word()
    t_big = braid_word(big, w0, inverse=True)
    t_ell = braid_word(ell_mod, w0, inverse=True)
    t_v = braid_word(v_mod, w0, inverse=True)
    ell = ell_mod.basis_vector(ell_mod.distinguished["highest"])
    ell_img = la.mat_vec(t_ell, ell)
    for b in range(v_mod.dim):
        vec = big.zero_vector()
        for a in range(ell_mod.dim):
            vec[a * v_mod.dim + b] = ell[a]
        lhs = la.mat_vec(t_big, vec)
        v_img = la.mat_vec(t_v, v_mod.basis_vector(b))
        rhs = big.zero_vector()
        for a in range(ell_mod.dim):
            for bb in range(v_mod.dim):
                rhs[a * v_mod.dim + bb] = ell_img[a] * v_img[bb]
        assert lhs == rhs


def test_module_json_description(alg2):
    mod = simple(alg2, (1, 0))
    desc = mod.describe()
    assert desc["dim"] == 3
    assert desc["weights"]["[1,0]"] == 1
    assert "highest" in desc["distinguished"]


def test_act_multiplies_no_matrices(monkeypatch, alg2):
    calls = []
    real = la.mat_mul
    monkeypatch.setattr(la, "mat_mul",
                        lambda a, b: calls.append(1) or real(a, b))
    u = alg2.f(0) * alg2.k((1, 0)) * alg2.f(1)
    for side in ("left", "right"):
        mod = verma(alg2, (1, 0), (2, 2), side=side)
        assert mod.act(u) == dense_act(mod, u)
        calls.clear()
        mod.act(u)
        assert calls == []
    monkeypatch.undo()
    # a one-letter element gives a new matrix: changing it leaves the
    # generator alone
    mod = simple(alg2, (1, 0))
    gen = mod.gen_matrix("f", 0)
    before = [list(row) for row in gen]
    one = mod.act(alg2.f(0))
    assert la.mat_eq(one, gen) and one is not gen
    one[0][0] = alg2.datum.one()
    assert gen == before
    assert la.mat_eq(mod.act(alg2.one()), la.identity(mod.dim, alg2.datum.l0))


def test_exp_matrix_multiplies_no_identity(monkeypatch, alg1):
    l0 = alg1.datum.l0
    m = simple(alg1, (2,)).gen_matrix("f", 0)   # f**2 != 0, f**3 = 0
    before = [list(row) for row in m]
    # the series summed from the identity power by power
    expected = la.identity(3, l0)
    power = la.identity(3, l0)
    for n in (1, 2):
        power = la.mat_mul(m, power)
        expected = la.mat_add(expected, la.mat_scale(
            power, exp_t_coefficient(n, -1, l0)))
    calls = []
    real = la.mat_mul
    monkeypatch.setattr(la, "mat_mul",
                        lambda a, b: calls.append(b) or real(a, b))
    assert la.mat_eq(weightmod._exp_matrix(m, -1, l0), expected)
    assert len(calls) == 2          # m**2 and m**3 = 0, never m·identity
    assert m == before
    calls.clear()
    zero = la.zeros(3, 3, l0)
    assert la.mat_eq(weightmod._exp_matrix(zero, -1, l0), la.identity(3, l0))
    assert calls == []


# -- dual routes for assembly -----------------------------------------------

def dense_tensor_gen(m1, m2):
    """The dense route ``tensor`` replaced: Delta(e_i) = e (x) 1 + k (x) e
    and Delta(f_i) = f (x) k^-1 + 1 (x) f as sums of Kronecker products
    with identity and k matrices."""
    datum = m1.datum
    id1 = la.identity(m1.dim, datum.l0)
    id2 = la.identity(m2.dim, datum.l0)
    out = {}
    for i in range(datum.rank):
        a = datum.alpha(i)
        k1 = m1.k_matrix(a)
        k2inv = m2.k_matrix(tuple(-x for x in a))
        out[("e", i)] = la.mat_add(la.kron(m1.gen[("e", i)], id2),
                                   la.kron(k1, m2.gen[("e", i)]))
        out[("f", i)] = la.mat_add(la.kron(m1.gen[("f", i)], k2inv),
                                   la.kron(id1, m2.gen[("f", i)]))
    return out


def word_matrix(mod, word):
    """The dense matrix of a raw letter word: the product of its letters'
    matrices, a k letter as the diagonal ``k_matrix``, in the order
    ``applied_letters`` gives."""
    out = la.identity(mod.dim, mod.datum.l0)
    for kind, v in mod.applied_letters(word):
        m = mod.k_matrix(v) if kind == "k" else mod.gen[(kind, v)]
        out = la.mat_mul(m, out)
    return out


def dense_act(mod, u):
    """The dense route ``act`` replaced: mat_add of mat_scale per term."""
    out = la.zeros(mod.dim, mod.dim, mod.datum.l0)
    for (fw, lam, ew), c in u.terms.items():
        m = word_matrix(mod, mod.algebra.monomial_word(fw, lam, ew))
        out = la.mat_add(out, la.mat_scale(m, c))
    return out


@pytest.mark.parametrize("typ", ["A2", "B2", "G2"])
def test_tensor_matches_dense_kron_route(typ):
    datum = preset(typ)
    alg = UAlgebra(datum)
    v = simple(alg, datum.fundamental(1))
    pairs = [(v, v), (restricted_dual(v), restricted_dual(v))]
    if typ != "G2":     # G2 V(w1) is above the default height cap
        w = simple(alg, datum.fundamental(0))
        pairs += [(v, w), (w, v), (restricted_dual(w), restricted_dual(v))]
    for m1, m2 in pairs:
        mod = tensor(m1, m2)
        assert mod.side == m1.side
        assert mod.gen == dense_tensor_gen(m1, m2), (typ, mod.name)
    vv = tensor(v, v)
    for m1, m2 in [(vv, v), (v, vv)]:
        assert tensor(m1, m2).gen == dense_tensor_gen(m1, m2)


def test_tensor_is_memoized_per_pair(alg2):
    v, w = simple(alg2, (1, 0)), simple(alg2, (0, 1))
    for m1, m2 in [(v, w), (w, v), (v, v)]:
        mod = tensor(m1, m2)
        assert tensor(m1, m2) is mod
        fresh = weightmod._tensor(m1, m2)
        assert fresh is not mod
        assert (mod.gen, mod.labels, mod.index_weights) == \
            (fresh.gen, fresh.labels, fresh.index_weights)
    assert tensor(v, w) is not tensor(w, v)


def test_tensor_of_a_tensor_keeps_the_relations(alg2):
    v = simple(alg2, (1, 0))
    for m in (v, restricted_dual(v)):
        mmm = tensor(tensor(m, m), m)
        assert mmm.dim == 27 and mmm.side == m.side
        assert check_module_relations(mmm) == []


def path_valid(mod, start, word):
    """True when the raw word, applied letter by letter to a vector of
    weight ``start``, never passes through a truncated-away weight space."""
    w = tuple(start)
    for kind, v in mod.applied_letters(word):
        if kind == "k":
            continue
        w = mod.datum.weight_add(w, mod.step_delta(kind, v))
        if w not in set(mod.index_weights) and not mod.missing_exact(w):
            return False
    return True


def dense_relation_failures(mod):
    """The relation check through the dense matrix of each word, with the
    path of each word walked afresh: the oracle of
    ``check_module_relations``."""
    failures = []
    for name, terms in weightmod.defining_relations(mod.algebra):
        mats = [(c, word_matrix(mod, w)) for c, w in terms]
        for col, wt in enumerate(mod.index_weights):
            if not all(path_valid(mod, wt, w) for _c, w in terms):
                continue
            acc = [sum((c * m[r][col] for c, m in mats), mod.datum.zero())
                   for r in range(mod.dim)]
            bad = [r for r, x in enumerate(acc) if not x.is_zero()]
            if bad:
                failures.append(
                    f"{mod.name}: relation {name} fails at basis "
                    f"{mod.labels[col]} -> {mod.labels[bad[0]]}: "
                    f"{acc[bad[0]].to_str()}")
    return failures


@pytest.fixture(scope="module")
def algebras(alg1, alg2):
    return {"A1": alg1, "A2": alg2, "B2": UAlgebra(preset("B2")),
            "G2": UAlgebra(preset("G2"))}


def relation_modules(alg):
    """Both sides of a Verma truncation, the fitting V(lam) and its dual,
    V(rho) where it fits under the cap, and tensor squares."""
    datum = alg.datum
    lam = suites._fitting_fundamental(datum)
    depth = (3,) * datum.rank
    v = simple(alg, lam)
    mods = [verma(alg, lam, depth), verma(alg, lam, depth, side="right"),
            v, restricted_dual(v)]
    if suites._constructible(datum, datum.rho):
        mods.append(simple(alg, datum.rho))
    return mods + [tensor(v, v),
                   tensor(restricted_dual(v), restricted_dual(v))]


@pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
def test_relation_check_matches_the_dense_oracle(typ, algebras):
    for mod in relation_modules(algebras[typ]):
        assert check_module_relations(mod) == dense_relation_failures(mod) \
            == [], mod.name


def corrupted(mod, how):
    """A copy of the module with one cell of e_0 changed: the first nonzero
    cell doubled, zeroed or negated, or ("off-weight") q written at the
    first cell whose row weight is not the column weight plus the weight
    shift of e_0, so its e_0 no longer moves weights by that shift."""
    e0 = [list(row) for row in mod.gen[("e", 0)]]
    if how == "off-weight":
        shift = mod.step_delta("e", 0)
        wts = mod.index_weights
        r, c = next((r, c) for r in range(mod.dim) for c in range(mod.dim)
                    if wts[r] != mod.datum.weight_add(wts[c], shift))
        e0[r][c] = mod.datum.q_power(1)
    else:
        r, c = next((r, c) for r, row in enumerate(e0)
                    for c, x in enumerate(row) if not x.is_zero())
        e0[r][c] = {"doubled": e0[r][c] + e0[r][c],
                    "zeroed": mod.datum.zero(), "negated": -e0[r][c]}[how]
    gen = dict(mod.gen)
    gen[("e", 0)] = e0
    return weightmod.WeightModule(
        mod.algebra, mod.side, mod.index_weights, gen, mod.missing_exact,
        mod.exact, labels=mod.labels, name=f"{how} {mod.name}")


@pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
def test_relation_check_reports_a_corrupted_cell(typ, algebras):
    alg = algebras[typ]
    datum = alg.datum
    depth = (2,) * datum.rank
    top = datum.rho if suites._constructible(datum, datum.rho) \
        else suites._fitting_fundamental(datum)
    v = simple(alg, top)
    for mod in (verma(alg, datum.rho, depth),
                verma(alg, datum.rho, depth, side="right"), v,
                restricted_dual(v)):
        for how in ("doubled", "zeroed", "negated", "off-weight"):
            bad = corrupted(mod, how)
            fails = check_module_relations(bad)
            assert fails and fails == dense_relation_failures(bad), bad.name
            assert fails[0].startswith(f"{bad.name}: relation ")
            if how == "off-weight":
                # a k-relation sees the weight the cell breaks
                assert any(f.split(": relation ")[1].startswith("k")
                           for f in fails), bad.name


def test_relation_check_halves_the_scalar_products(monkeypatch):
    """On the modules of the A2 and B2 presentation suites at the default
    cap, the check multiplies scalars at most 12,925 times, half of what
    walking every term's word from every column took (25,850)."""
    mods = []
    for typ in ("A2", "B2"):
        datum = preset(typ)
        alg = UAlgebra(datum)
        depth = (2,) * datum.rank
        for lam in suites._dominant_weights(datum, 2):
            v = simple(alg, lam)
            mods += [verma(alg, lam, depth),
                     verma(alg, lam, depth, side="right"), v,
                     restricted_dual(v)]
    assert len(mods) == 48
    calls = []
    real = QScalar.__mul__
    monkeypatch.setattr(QScalar, "__mul__",
                        lambda x, y: calls.append(1) or real(x, y))
    assert all(check_module_relations(mod) == [] for mod in mods)
    assert len(calls) <= 25850 // 2


def test_relation_cores_are_built_once_per_algebra_and_side(monkeypatch,
                                                             a2):
    """Two modules of one algebra and side share the relations grouped by
    core; the other side builds its own groups once."""
    alg = UAlgebra(a2)
    built = []
    real = weightmod._core_groups
    monkeypatch.setattr(weightmod, "_core_groups",
                        lambda d, side, terms: built.append(side) or
                        real(d, side, terms))
    nrels = len(weightmod.defining_relations(alg))
    for side in ("left", "right"):
        for lam in ((1, 0), (0, 1)):
            mod = verma(alg, lam, (2, 2), side=side)
            assert check_module_relations(mod) == []
        assert built.count(side) == nrels


def test_act_matches_dense_sum(alg2):
    e0, f0, e1, f1 = alg2.e(0), alg2.f(0), alg2.e(1), alg2.f(1)
    q = alg2.datum.q_power(1)
    rho = alg2.datum.rho
    elements = [
        e0 * f0,                        # f e + (k - k^-1)/(q - q^-1)
        e0 * f0 * e1 * f1 + f1 * e1.scale(q) - alg2.k((1, 0)),
        e0 * e1 * f0 + f1 * f0 * e0,
        # a k letter between the f and e letters of a monomial
        f1 * alg2.k(rho) * e0 + (e1 * alg2.k((1, 0)) * f1).scale(q),
    ]
    assert all(len(u.terms) >= 2 for u in elements)
    assert any(fw and ew and any(lam) for fw, lam, ew in elements[-1].terms)
    dual = restricted_dual(simple(alg2, (1, 0)))
    for mod in (simple(alg2, (1, 1)), dual, tensor(dual, dual),
                verma(alg2, rho, (2, 2)),
                verma(alg2, (1, 0), (2, 2), side="right")):
        for u in elements:
            assert mod.act(u) == dense_act(mod, u), (mod.name, u.to_str())

