from collections import Counter

import pytest

from qflag import diffops, thetarep
from qflag import linalg as la
from qflag.center import (annihilator_check, center_solve,
                          commutes_with_generators, partial_z_is_sigma_zeta,
                          zeta_separation_scan)
from qflag.diffops import (DWindow, extremal_transport_check, lemma_rl_check,
                           relations_check, z_conjugate, z_w_check)
from qflag.cartan import preset
from qflag.coordring import CoordRing
from qflag.enveloping import UAlgebra, _content
from qflag.rmatrix import DrinfeldPairing
from qflag.thetarep import (ThetaDirect, ThetaFormula, theta_build,
                            theta_faithfulness_probe, theta_formula)
from qflag.weightmod import (SimpleFactory, WeightModule, braid_on_module,
                             plus_part)


@pytest.fixture(scope="module")
def w1(ring1, pairing1):
    return DWindow(ring1, pairing1, (2,))


@pytest.fixture(scope="module")
def w2(ring2, pairing2):
    return DWindow(ring2, pairing2, (1, 1))


def test_primitive_operators(w1, ring1, alg1):
    d = alg1.datum
    # sigma acts by the grade, not the weight
    sig = w1.op_sigma((1,))
    for g in w1.grades:
        expected = la.mat_scale(la.identity(w1.module(g).dim, d.l0),
                                d.q_pair((1,), g))
        assert la.mat_eq(sig.blocks[g], expected)
    # l_1 is the identity
    ok, _ = w1.op_mult(ring1.unit(), "left").equals(w1.op_sigma((0,)))
    assert ok
    # partial_k acts by the weight on every slice
    pk = w1.op_partial(alg1.k((1,)))
    for g in w1.grades:
        mod = w1.module(g)
        for idx, wt in enumerate(mod.index_weights):
            assert pk.blocks[g][idx][idx] == d.q_pair((1,), wt)


def test_op_partial_is_memoized_by_terms(monkeypatch, ring2, pairing2,
                                         alg2):
    win = DWindow(ring2, pairing2, (1, 1))
    u = alg2.e(0) * alg2.f(0)
    op = win.op_partial(u)
    for g in win.grades:
        assert la.mat_eq(op.blocks[g], win.module(g).act(u))
    acts = []
    real = WeightModule.act
    monkeypatch.setattr(WeightModule, "act",
                        lambda mod, x: acts.append(x) or real(mod, x))
    # an equal element built anew is served from the window's memo
    assert win.op_partial(alg2.e(0) * alg2.f(0)) is op and not acts
    other = win.op_partial(alg2.f(0) * alg2.e(0))
    assert other is not op and len(acts) == len(win.grades)


def test_operator_equality_is_windowwise(w1, ring1):
    phi = ring1.grade_basis((1,))[0]
    psi = ring1.grade_basis((1,))[1]
    ok, cex = w1.op_mult(phi, "left").equals(w1.op_mult(psi, "left"))
    assert not ok and cex is not None


def test_window_monotonicity(ring1, pairing1):
    # distinct operators on a small window stay distinct on a larger one
    small = DWindow(ring1, pairing1, (1,))
    large = DWindow(ring1, pairing1, (2,))
    phi, psi = ring1.grade_basis((1,))
    for win in (small, large):
        ok, _ = win.op_partial(ring1.algebra.e(0)).equals(
            win.op_partial(ring1.algebra.f(0)))
        assert not ok
        ok2, _ = win.op_mult(phi, "left").equals(win.op_mult(psi, "left"))
        assert not ok2


def test_relations_windows(w1, w2):
    assert relations_check(w1)["pass"]
    assert relations_check(w2)["pass"]


def test_relations_negative_control(w1):
    rep = relations_check(w1, corrupt=True)
    assert not rep["pass"]
    bad = [r for r in rep["results"] if not r["pass"]]
    assert bad and "counterexample" in bad[0]


def test_lemma_rl(w1, w2, ring1, ring2):
    for psi in ring1.grade_basis((1,)):
        assert lemma_rl_check(w1, psi)["pass"]
    for psi in ring2.grade_basis((1, 0)):
        assert lemma_rl_check(w2, psi)["pass"]


def test_lemma_rl_unit(w1, ring1):
    rep = lemma_rl_check(w1, ring1.unit())
    assert rep["pass"]


def test_z_w(w1, w2):
    assert z_w_check(w1, 0)["pass"]
    assert z_w_check(w2, 0)["pass"]
    assert z_w_check(w2, 1)["pass"]


def test_z_w_fixes_sigma_and_transports_partials(w1, alg1):
    d = alg1.datum
    sig = w1.op_sigma(d.rho)
    ok, _ = z_conjugate(w1, 0, sig).equals(sig)
    assert ok
    pu = w1.op_partial(alg1.e(0))
    expected = w1.op_partial(alg1.braid_on_element(0, alg1.e(0),
                                                   inverse=True))
    ok2, _ = z_conjugate(w1, 0, pu).equals(expected)
    assert ok2


def old_z_conjugate(window, i, d):
    """The blockwise T_i^{-1} d T_i loop that composition replaced, kept
    as an oracle: the blocks of Z_{s_i}(d), None outside the window."""
    datum = window.datum
    blocks = {}
    for g in window.grades:
        m = d.blocks.get(g)
        tgt = datum.weight_add(g, d.grade)
        if m is None or tgt not in window.grade_set:
            blocks[g] = None
        else:
            t = braid_on_module(window.module(g), i)
            tinv = braid_on_module(window.module(tgt), i, inverse=True)
            blocks[g] = la.mat_mul(tinv, la.mat_mul(m, t))
    return blocks


@pytest.mark.parametrize("window", ["w1", "w2"])
def test_z_conjugate_matches_the_blockwise_loop(request, window):
    win = request.getfixturevalue(window)
    phi = win.ring.grade_basis(win.grades[1])[0]
    ops = [win.op_sigma(win.datum.rho), win.op_partial(win.algebra.e(0)),
           win.op_mult(phi, "left"), win.op_mult(phi, "right")]
    for i in range(win.datum.rank):
        for op in ops:
            new = z_conjugate(win, i, op)
            old = old_z_conjugate(win, i, op)
            assert new.grade == op.grade and not new.unit
            for g in win.grades:
                a, b = new.blocks.get(g), old[g]
                assert (a is None) == (b is None)
                assert a is None or la.mat_eq(a, b)
    # the multiplications leave the window at the top grade
    assert any(m is None for m in z_conjugate(win, 0, ops[2]).blocks.values())


def test_relations_builds_each_multiplication_once(monkeypatch, ring1,
                                                   pairing1):
    """relations asks for each multiplication once; Z_w's expansions ask
    for many multiples of one element, and on a fresh ring each ray's
    matrix is built once, some read scaled."""
    calls, built = Counter(), Counter()
    real = CoordRing.full_mult_matrix
    real_build = CoordRing._full_mult_columns

    def spy(self, lam, phi, side):
        calls[(tuple(lam), phi.grade, phi.gamma, tuple(phi.vec), side)] += 1
        return real(self, lam, phi, side)

    def build(self, lam, phi, side):
        built[(lam, phi.grade, phi.gamma, tuple(phi.vec), side)] += 1
        return real_build(self, lam, phi, side)

    monkeypatch.setattr(CoordRing, "full_mult_matrix", spy)
    monkeypatch.setattr(CoordRing, "_full_mult_columns", build)
    win = DWindow(ring1, pairing1, (2,))
    assert relations_check(win)["pass"]
    assert calls and set(calls.values()) == {1}
    for alg, pairing, cutoff in ((ring1.algebra, pairing1, (2,)),
                                 (UAlgebra(preset("A2")), None, (1, 1))):
        calls.clear()
        built.clear()
        win = DWindow(CoordRing(alg), pairing or DrinfeldPairing(alg), cutoff)
        for i in range(alg.datum.rank):
            assert z_w_check(win, i)["pass"]
        assert built and set(built.values()) == {1}
        # more elements than rays: some matrices were read scaled
        assert len(calls) > len(built)


def test_sigma_zero_is_the_unit(w1, ring1):
    d = w1.datum
    unit = w1.op_sigma(d.zero_weight)
    assert unit.unit and not w1.op_sigma((1,)).unit
    assert all(la.is_identity(m) for m in unit.blocks.values())
    # neither a scaled unit nor a sum with the unit is the unit
    q = d.q_power(1)
    assert not unit.scale(d.one()).unit and not (unit + unit).unit
    l_phi = w1.op_mult(ring1.grade_basis((1,))[0], "left")
    assert unit.scale(q).compose(l_phi).equals(l_phi.scale(q))[0]
    assert l_phi.compose(unit + unit).equals(l_phi.scale(d.scalar(2)))[0]


def test_extremal_transport(w1, w2):
    rep = extremal_transport_check(w1, (), 0, (1,))
    assert rep["pass"] and rep["w_alpha_i_positive"]
    rep2 = extremal_transport_check(w2, (1,), 0, (1, 0))
    assert rep2["pass"]


def test_extremal_transport_reports_its_counterexample(w1, monkeypatch):
    # a wrong braid image: the true one scaled by q
    real = diffops._apply_braid_to_element
    q = w1.datum.q_power(1)
    monkeypatch.setattr(diffops, "_apply_braid_to_element",
                        lambda *a, **k: real(*a, **k).scale(q))
    rep = extremal_transport_check(w1, (), 0, (1,))
    assert not rep["pass"] and rep["conjugate_is_left_mult"] is False
    assert {"grade", "input", "output", "lhs", "rhs"} <= \
        set(rep["counterexample"])


def test_theta_formula_vs_direct(ring1, pairing1):
    rep = theta_build(ring1, pairing1, 4, [(0,), (1,), (2,)])
    assert rep["pass"]


def test_theta_formula_vs_direct_a2(ring2, pairing2):
    probes = [(0, 0), (1, 0), (1, 1)]
    rep = theta_build(ring2, pairing2, 2, probes)
    assert rep["pass"]


def solved_act_f(direct, i, frac):
    """partial_{f_i} of a model fraction with the numerator solved into
    slice coordinates from the evaluations of the two products."""
    ring, datum = direct.ring, direct.datum
    mu, psi = frac
    nu, chi = direct._ore_data(i)
    first = ring.u_action(ring.algebra.f(i), psi)
    tw = datum.q_pair(datum.alpha(i), datum.weight_sub(mu, psi.weight))
    num = ring.mult(ring.extremal((), nu), first) - \
        ring.mult(chi, psi).scale(tw)
    return datum.weight_add(mu, nu), num


@pytest.mark.parametrize("typ", ["A1", "A2"])
def test_theta_ore_images_read_the_evaluations_of_products(
        typ, ring1, ring2, pairing1, pairing2):
    ring, pairing = (ring1, pairing1) if typ == "A1" else (ring2, pairing2)
    datum = ring.datum
    depth = 4 if datum.rank == 1 else 3       # the theta suite's probes
    probes = dict.fromkeys([datum.zero_weight, datum.fundamental(0),
                            tuple(2 * x for x in datum.fundamental(0)),
                            datum.rho])
    plus = theta_formula(pairing, depth).plus
    checked = 0
    for probe in probes:
        direct = ThetaDirect(ring, plus, probe)
        for i in range(datum.rank):
            if direct._ore_data(i) is None:
                continue
            ai = datum.alpha_root(i)
            for g in plus_degrees(plus):
                # the degrees theta reads: f_i lands inside the truncation
                if (tuple(a + b for a, b in zip(g, ai)), 0) not in plus.slot:
                    continue
                for frac in direct.model_basis(g):
                    image = direct.act_f(i, frac)
                    den, num = solved_act_f(direct, i, frac)
                    assert image[:2] == (den, num.gamma)
                    assert direct.functional_vector(image) == \
                        direct.functional_vector(
                            (den, num.gamma, ring.evaluations(num)))
                    checked += 1
    assert checked


def test_theta_act_f_on_every_model_degree(ring1, pairing1):
    """At probe 0 the model is V(4): f_0 kills its lowest line, and the
    zero image lands at drop (5,), with the Ore products."""
    plus = theta_formula(pairing1, 4).plus
    direct = ThetaDirect(ring1, plus, (0,))
    assert direct.level == (4,)
    for g in plus_degrees(plus):
        for frac in direct.model_basis(g):
            den, gamma, values = direct.act_f(0, frac)
            assert gamma == (g[0] + 1,)
            assert len(values) == len(ring1.algebra.basis(gamma).free_words)


def old_gram_inverse(direct, gamma):
    """The inverse of the Gram matrix of the model's functionals at drop
    gamma, built from those functionals."""
    return la.inverse([direct.functional_vector(direct._image(*fr))
                       for fr in direct.model_basis(gamma)])


def inverse_route_theta(direct, kind, arg):
    """The transpose matrix on the full plus-part truncation, G^{-1} V on
    each block from the inverse of the model's functionals, and zero off
    the blocks."""
    datum, plus = direct.datum, direct.plus
    if kind == "sigma":
        return la.diagonal([datum.q_pair(arg, direct.probe)] * plus.dim,
                           datum.l0)
    out = la.zeros(plus.dim, plus.dim, datum.l0)
    for tgt, g, vals in direct._blocks(kind, arg):
        la.set_block(out, plus.slot[(tgt, 0)], plus.slot[(g, 0)],
                     la.mat_mul(old_gram_inverse(direct, tgt), vals))
    return out


def compare_cells(plus, mf, md):
    """(ok, counterexample) comparing mf with md entrywise, column by
    column, at the first differing cell."""
    datum = plus.datum
    for col, (g, r) in enumerate(plus.slot_keys):
        for row in range(plus.dim):
            if mf[row][col] != md[row][col]:
                return False, {
                    "degree": datum.root_str(g),
                    "word": list(plus.algebra.basis(g).free_words[r]),
                    "row": row,
                    "formula": mf[row][col].to_str(),
                    "direct": md[row][col].to_str()}
    return True, None


@pytest.fixture(scope="module")
def theta_ctx(ring1, ring2, pairing1, pairing2, g2):
    """(ring, pairing) per type, for the theta suite's probes."""
    alg = UAlgebra(g2)
    return {"A1": (ring1, pairing1), "A2": (ring2, pairing2),
            "G2": (CoordRing(alg), DrinfeldPairing(alg))}


@pytest.mark.parametrize("typ", ["A1", "A2", "G2"])
def test_gram_reads_the_model_functionals(typ, theta_ctx):
    """On every (probe, degree) slice of the theta suite."""
    ring, pairing = theta_ctx[typ]
    datum = ring.datum
    plus = theta_formula(pairing, 4 if datum.rank == 1 else 3).plus
    probes = dict.fromkeys([datum.zero_weight, datum.fundamental(0),
                            tuple(2 * x for x in datum.fundamental(0)),
                            datum.rho])
    checked = 0
    for probe in probes:
        direct = ThetaDirect(ring, plus, probe)
        for g in plus_degrees(plus):
            assert la.mat_eq(direct.gram(g), [
                direct.functional_vector(direct._image(*fr))
                for fr in direct.model_basis(g)]), (probe, g)
            checked += 1
    assert checked == len(probes) * len(plus_degrees(plus))


def theta_suite(typ, theta_ctx):
    """(ring, formula, probes, generators) of the theta suite on a type."""
    ring, pairing = theta_ctx[typ]
    datum = ring.datum
    formula = theta_formula(pairing, 4 if datum.rank == 1 else 3)
    probes = dict.fromkeys([datum.zero_weight, datum.fundamental(0),
                            tuple(2 * x for x in datum.fundamental(0)),
                            datum.rho])
    gens = [(kind, i) for i in range(datum.rank) for kind in ("de", "df")]
    gens += [("dk", datum.rho), ("sigma", datum.rho)]
    return ring, formula, probes, gens


def theta_cells(plus, kind, arg):
    """(inside, outside, blockless): the cells (row, col) of a generator's
    blocks, from a column's degree to its target degree; every other cell;
    and the cells of the columns whose target degree leaves the
    truncation, which have no block."""
    datum = plus.datum
    shift = {"de": datum.alpha_root(arg) if kind == "de" else None,
             "df": tuple(-x for x in datum.alpha_root(arg))
             if kind == "df" else None}.get(kind, datum.zero_root)
    inside, outside, blockless = [], [], []
    for col, (g, _c) in enumerate(plus.slot_keys):
        tgt = tuple(a + b for a, b in zip(g, shift))
        for row, (h, _r) in enumerate(plus.slot_keys):
            (inside if h == tgt else outside).append((row, col))
            if (tgt, 0) not in plus.slot:
                blockless.append((row, col))
    return inside, outside, blockless


@pytest.mark.parametrize("typ", ["A1", "A2", "G2"])
def test_theta_gram_check_agrees_with_the_inverse_route(typ, theta_ctx):
    """On every (probe, generator) of the theta suite, the Gram check gives
    what comparing against the inverse route's matrix gives: with the
    formula's own matrix, and with one cell corrupted inside a block,
    outside every block, or in a column whose degree has no block."""
    ring, formula, probes, gens = theta_suite(typ, theta_ctx)
    plus = formula.plus
    one = ring.datum.one()
    failed = Counter()
    for probe in probes:
        direct = ThetaDirect(ring, plus, probe)
        for kind, arg in gens:
            mf = formula.theta(probe, kind, arg)
            md = inverse_route_theta(direct, kind, arg)
            assert direct.check(mf, kind, arg) == \
                compare_cells(plus, mf, md) == (True, None)
            inside, outside, blockless = theta_cells(plus, kind, arg)
            for where, cells in (("inside", inside), ("outside", outside),
                                 ("blockless", blockless)):
                for row, col in dict.fromkeys(cells[:1] + cells[-1:]):
                    bad = [list(r) for r in mf]
                    bad[row][col] = bad[row][col] + one
                    ok, cex = direct.check(bad, kind, arg)
                    assert (ok, cex) == compare_cells(plus, bad, md)
                    assert not ok and cex["row"] == row, (probe, kind, where)
                    failed[where] += 1
    assert failed["inside"] and failed["outside"] and failed["blockless"]


def test_a_failing_theta_check_computes_each_image_once(monkeypatch,
                                                        ring2, pairing2):
    """A corrupted block is reported from one pass over the images, with
    no evaluation inverse."""
    formula = theta_formula(pairing2, 3)
    plus = formula.plus
    direct = ThetaDirect(ring2, plus, (1, 0))
    mf = formula.theta((1, 0), "df", 0)
    row, col = theta_cells(plus, "df", 0)[0][0]
    bad = [list(r) for r in mf]
    bad[row][col] = bad[row][col] + ring2.datum.one()
    md = inverse_route_theta(direct, "df", 0)
    calls = Counter()
    for owner, name in ((CoordRing, "eval_factor"), (ThetaDirect, "_blocks")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: (
            calls.update([name]) or real(*a)))
    assert direct.check(bad, "df", 0) == compare_cells(plus, bad, md)
    assert calls == Counter({"_blocks": 1})


def test_a_passing_theta_build_inverts_no_gram(monkeypatch):
    """theta_build checks every block against the polynomial Gram: it
    inverts no matrix outside the Ore witness search (which solves its
    products through the ring)."""
    alg = UAlgebra(preset("A2"))
    ring, pairing = CoordRing(alg), DrinfeldPairing(alg)
    where, inverted = [], []
    real_ore = CoordRing.ore_witness

    def ore(*args, **kwargs):
        where.append("ore")
        try:
            return real_ore(*args, **kwargs)
        finally:
            where.pop()
    monkeypatch.setattr(CoordRing, "ore_witness", ore)
    real_inverse = la.inverse
    monkeypatch.setattr(la, "inverse", lambda a: (
        inverted.append(list(where)) or real_inverse(a)))
    rep = theta_build(ring, pairing, 3, [(0, 0), (1, 0), (2, 0), (1, 1)])
    assert rep["pass"]
    assert [w for w in inverted if w != ["ore"]] == []


def test_theta_direct_route_solves_no_ore_image(monkeypatch):
    """theta_build solves no product and builds no simple module inside
    act_f, apart from the Ore witness search it starts."""
    alg = UAlgebra(preset("A2"))
    ring, pairing = CoordRing(alg), DrinfeldPairing(alg)
    where, solved, built = [], [], []

    def tagged(owner, name, tag):
        real = getattr(owner, name)

        def run(*args, **kwargs):
            where.append(tag)
            try:
                return real(*args, **kwargs)
            finally:
                where.pop()
        monkeypatch.setattr(owner, name, run)

    tagged(ThetaDirect, "act_f", "act_f")
    tagged(CoordRing, "ore_witness", "ore")
    real_solve = CoordRing.from_evaluations
    monkeypatch.setattr(CoordRing, "from_evaluations", lambda self, *a: (
        solved.append(list(where)) or real_solve(self, *a)))
    real_init = SimpleFactory.__init__

    def init(self, algebra, lam):
        built.append((tuple(lam), list(where)))
        real_init(self, algebra, lam)
    monkeypatch.setattr(SimpleFactory, "__init__", init)
    rep = theta_build(ring, pairing, 3, [(0, 0), (1, 0), (2, 0), (1, 1)])
    assert rep["pass"]
    assert any(w[-1:] == ["ore"] for w in solved)
    assert [w for w in solved if w[-1:] == ["act_f"]] == []
    assert [b for b in built if b[1][-1:] == ["act_f"]] == []


def test_theta_sigma_scalar(ring1, pairing1, alg1):
    formula = ThetaFormula(plus_part(alg1, 3), pairing1)
    d = alg1.datum
    m = formula.theta((2,), "sigma", (1,))
    assert m[0][0] == d.q_pair((1,), (2,))


def test_theta_anti_compatible(ring2, pairing2, alg2):
    # Theta reverses composition: the image of partial_{e_i e_j} (apply
    # e_j, then e_i) is right multiplication by the product word, i.e. the
    # flipped composite of the single-letter images
    plus = plus_part(alg2, 3)
    formula = ThetaFormula(plus, pairing2)
    m1 = formula.theta((0, 0), "de", 0)
    m2 = formula.theta((0, 0), "de", 1)
    # right multiplication by e_1 e_2 as one matrix
    prod = la.zeros(plus.dim, plus.dim, alg2.datum.l0)
    for col, (g, r) in enumerate(plus.slot_keys):
        gp = tuple(a + b for a, b in zip(g, (1, 1)))
        if (gp, 0) not in plus.slot:
            continue
        red = alg2.basis(gp).reduce_word(alg2.basis(g).free_words[r] + (0, 1))
        reduce_into(plus, prod, col, gp, red)
    # partial_{e1 e2} = partial_{e1} o partial_{e2}; Theta flips the order
    assert la.mat_eq(prod, la.mat_mul(m2, m1))
    assert not la.mat_eq(la.mat_mul(m2, m1), la.mat_mul(m1, m2))


def plus_degrees(plus):
    """The degrees of the plus part in layout order."""
    return list(dict.fromkeys(g for g, _r in plus.slot_keys))


def reduce_into(plus, mat, col, gamma, coords):
    """Add free-word coordinates of degree gamma into column col."""
    pos = plus.algebra.basis(gamma).free_pos
    for w, c in coords.items():
        row = mat[plus.slot[(gamma, pos[w])]]
        row[col] = row[col] + c


def old_conv(formula, i, eaten):
    """The convolution by its own coproduct loop per leg: the functional
    eats leg 0 (the operator p_i) or leg 1 (q_i)."""
    plus, alg = formula.plus, formula.algebra
    rank = alg.datum.rank
    ai = alg.datum.alpha_root(i)
    out = la.zeros(plus.dim, plus.dim, alg.datum.l0)
    for col, (g, r) in enumerate(plus.slot_keys):
        gp = tuple(a - b for a, b in zip(g, ai))
        if any(c < 0 for c in gp):
            continue
        acc = {}
        for monos, c in alg.coproduct(
                alg.e_word(alg.basis(g).free_words[r])).items():
            ew, rest = monos[eaten][2], monos[1 - eaten][2]
            if _content(ew, rank) != ai:
                continue
            val = formula.pairing.pair_words(ew, (i,))
            if not val.is_zero():
                acc[rest] = acc[rest] + c * val if rest in acc \
                    else c * val
        reduce_into(plus, out, col, gp,
                    {w: c for w, c in acc.items() if not c.is_zero()})
    return out


@pytest.mark.parametrize("which,depth", [(1, 4), (2, 3)])
def test_theta_convolutions_match_their_leg_loops(which, depth, pairing1,
                                                  pairing2):
    formula = theta_formula(pairing1 if which == 1 else pairing2, depth)
    for i in range(formula.datum.rank):
        for leg in (0, 1):
            assert la.mat_eq(formula.conv(i, leg), old_conv(formula, i, leg))


def test_theta_operators_built_once_per_depth(monkeypatch, ring1, alg1):
    """One plus part per depth; each convolution pair and each torus
    conjugation diagonal is built once."""
    built = Counter()
    real_plus, real_convs = thetarep.plus_part, ThetaFormula._convs
    real_k = WeightModule.k_matrix
    monkeypatch.setattr(thetarep, "plus_part", lambda alg, depth: (
        built.update([("plus_part", depth)]) or real_plus(alg, depth)))
    monkeypatch.setattr(ThetaFormula, "_convs", lambda self, i: (
        built.update([("_convs", i)]) or real_convs(self, i)))
    monkeypatch.setattr(WeightModule, "k_matrix", lambda self, lam: (
        built.update([("k_matrix", self.name, tuple(lam))])
        or real_k(self, lam)))
    pairing = DrinfeldPairing(alg1)
    probes = [(0,), (1,), (2,)]
    assert theta_build(ring1, pairing, 3, probes)["pass"]
    span = [[("de", 0)], [("df", 0)], [("dk", (2,))], []]
    assert theta_faithfulness_probe(ring1, pairing, 3, probes, span)["pass"]
    assert theta_formula(pairing, 3) is theta_formula(pairing, 3)
    assert {("plus_part", 3), ("_convs", 0)} <= set(built)
    assert ("k_matrix", "Tr([0])|ht<=3", (-2,)) in built
    assert set(built.values()) == {1}


def test_theta_faithfulness(ring1, pairing1):
    span = [[("de", 0)], [("df", 0)], [("dk", (2,))], []]
    rep = theta_faithfulness_probe(ring1, pairing1, 3,
                                   [(0,), (1,), (2,)], span)
    assert rep["pass"] and rep["rank"] == 4
    dup = theta_faithfulness_probe(ring1, pairing1, 3, [(0,), (1,)],
                                   [[("de", 0)], [("de", 0)]])
    assert not dup["pass"]


def test_theta_faithfulness_multiplies_no_identity(monkeypatch, ring1,
                                                   pairing1):
    """Each probe's product starts at its first factor; only the empty
    word is the identity."""
    probes = [(0,), (1,)]
    span = [[("de", 0), ("dk", (2,))], [("de", 0)], []]
    formula = theta_formula(pairing1, 3)
    ident = la.identity(formula.plus.dim, ring1.datum.l0)
    rows = []   # the same rows with every product started at the identity
    for word in span:
        vec = []
        for probe in probes:
            mat = ident
            for kind, arg in word:
                mat = la.mat_mul(formula.theta(probe, kind, arg), mat)
            vec.extend(x for r in mat for x in r)
        rows.append(vec)
    calls = []
    real = la.mat_mul
    monkeypatch.setattr(la, "mat_mul",
                        lambda a, b: calls.append(b) or real(a, b))
    rep = theta_faithfulness_probe(ring1, pairing1, 3, probes, span)
    assert rep["pass"] and rep["rank"] == la.rank(rows) == 3
    assert len(calls) == 2          # one per probe, for the two-letter word
    assert not any(la.mat_eq(b, ident) for b in calls)


@pytest.mark.parametrize("window", ["w1", "w2"])
def test_no_composition_with_the_unit_partial(monkeypatch, request, window):
    """The n = 0 term of the exponential in z_w_check and the Sweedler legs
    equal to 1 in relations_check compose with no identity matrix."""
    win = request.getfixturevalue(window)
    calls = []
    real = la.mat_mul

    def spy(a, b):
        if any(len(m) > 1 and la.mat_eq(m, la.identity(len(m), m[0][0].l0))
               for m in (a, b)):
            calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(la, "mat_mul", spy)
    assert relations_check(win)["pass"]
    for i in range(win.datum.rank):
        assert z_w_check(win, i)["pass"]
    assert calls == []
    # the unit partial is the identity, and composes to the other factor
    phi = win.ring.grade_basis(win.grades[1])[0]
    unit = win.op_partial(win.algebra.one())
    assert unit.unit and all(
        la.mat_eq(m, la.identity(len(m), win.datum.l0))
        for m in unit.blocks.values())
    l_phi = win.op_mult(phi, "left")
    for op in (unit.compose(l_phi), l_phi.compose(unit)):
        assert op.equals(l_phi)[0]


def test_center_solve_a1(alg1, w1):
    centers = center_solve(alg1, 2)
    assert any(not z.is_scalar() for z in centers)
    for zc in centers:
        assert commutes_with_generators(alg1, zc.element)
        assert zc.hc_is_invariant()
        assert partial_z_is_sigma_zeta(w1, zc)
    # the trivial solution is present with hc = e(0)
    trivials = [z for z in centers if z.is_scalar()]
    assert trivials and list(trivials[0].hc_image) == [(0,)]


def test_zeta_scan(alg1):
    centers = center_solve(alg1, 2)
    lams = [(n,) for n in range(-3, 4)]
    assert zeta_separation_scan(alg1, centers, lams)["pass"]


def test_annihilator(alg1):
    zc = [z for z in center_solve(alg1, 2) if not z.is_scalar()][0]
    assert annihilator_check(alg1, zc, (0,), (4,))["annihilates"]
    assert annihilator_check(alg1, zc, (2,), (4,))["annihilates"]
    neg = annihilator_check(alg1, zc, (2,), (4,), character_at=(0,))
    assert not neg["annihilates"] and not neg["linked"]
    # linked weights share the character: shifted reflection of 2w is -4w
    link = annihilator_check(alg1, zc, (2,), (4,), character_at=(-4,))
    assert link["annihilates"] and link["linked"]
