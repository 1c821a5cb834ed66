from collections import Counter

import pytest

from qflag import linalg as la
from qflag import rmatrix, suites, weightmod
from qflag.cartan import preset
from qflag.enveloping import UAlgebra
from qflag.errors import BorelError, TruncationError
from qflag.rmatrix import (DrinfeldPairing, contributing_degrees,
                           hexagon_check, r_operator)
from qflag.scalars import QScalar
from qflag.weightmod import (braid_on_module, braid_word,
                             module_map_commutes, simple, tensor, verma)

from conftest import exp_matrix


def kappa_matrix(m1, m2):
    """The dense diagonal kappa = q^{(mu, nu)} on m1 (x) m2."""
    return la.diagonal(rmatrix._kappa_diagonal(m1, m2), m1.datum.l0)


def dense_rows(rows, l0):
    """A square matrix given by its rows of nonzero cells, made dense."""
    return la.from_rows(rows, len(rows), l0)


def xi_element(pairing, beta):
    """Xi_beta as a list of (x_a, y_b, coefficient) triples over the free
    words of degree beta, one per nonzero cell of xi_coefficients(beta)."""
    beta = tuple(beta)
    alg = pairing.algebra
    if not any(beta):
        return [(alg.one(), alg.one(), pairing.datum.one())]
    words = alg.basis(beta).free_words
    coeffs = pairing.xi_coefficients(beta)
    return [(alg.e_word(wa), alg.f_word(wb), coeffs[a][b])
            for a, wa in enumerate(words) for b, wb in enumerate(words)
            if not coeffs[a][b].is_zero()]


def xi_operator(pairing, m1, m2):
    """sum_beta q^{(beta,beta)} (k_beta^{-1} (x) k_beta) Xi_beta on m1 (x) m2,
    summed degree by degree from the inverted pairing tables: an oracle
    for kappa R that shares no step with the root-vector product."""
    datum = pairing.datum
    alg = pairing.algebra
    out = la.identity(m1.dim * m2.dim, datum.l0)  # beta = 0 term
    for beta in contributing_degrees(datum, m1, m2):
        if not any(beta):
            continue
        kb = datum.root_to_weight(beta)
        tw = datum.q_power(datum.pair_ww(kb, kb))
        kminus = alg.k(tuple(-x for x in kb))
        kplus = alg.k(kb)
        for x, y, c in xi_element(pairing, beta):
            left = m1.act(kminus * x)
            right = m2.act(kplus * y)
            out = la.mat_add(out, la.mat_scale(la.kron(left, right), tw * c))
    return out


def dense_r_inverse(pairing, m1, m2):
    """The pair-by-pair route ``r_inverse_matrix`` replaced: every pair of
    ``inverse_components`` summed with mat_add, then composed with the
    kappa matrix."""
    datum = pairing.datum
    acc = la.identity(m1.dim * m2.dim, datum.l0)
    for beta in contributing_degrees(datum, m1, m2):
        if not any(beta):
            continue
        for x, y in pairing.inverse_components(beta):
            acc = la.mat_add(acc, la.kron(m1.act(x), m2.act(y)))
    return la.mat_mul(acc, kappa_matrix(m1, m2))


def dense_theta(m1, m2, roots=rmatrix.root_vectors):
    """The dense route ``theta_matrix`` replaced: each factor X_k is
    ``exp_matrix`` of the carrier-sized kron(c E_k, F_k), and the factors
    multiply from the identity, later ones on the left."""
    datum = m1.datum
    out = la.identity(m1.dim * m2.dim, datum.l0)
    for i, e, f in zip(datum.longest_word(), roots(m1, "e"), roots(m2, "f")):
        qi = datum.q_power(datum.d(i))
        x = la.kron(la.mat_scale(e, qi.inverse() - qi), f)
        out = la.mat_mul(exp_matrix(x, -datum.d(i), datum.l0), out)
    return out


def dense_hexagon_check(pairing, m1, m2, m3):
    """The dense route ``hexagon_check`` replaced: both legs as
    carrier-sized krons with identities, one dense mat_mul, and
    ``first_mismatch`` over every cell."""
    l0 = pairing.datum.l0
    r23 = rmatrix.r_operator(pairing, m2, m3, "R-check").matrix
    r13 = rmatrix.r_operator(pairing, m1, m3, "R-check").matrix
    lhs = la.mat_mul(la.kron(r13, la.identity(m2.dim, l0)),
                     la.kron(la.identity(m1.dim, l0), r23))
    rhs = rmatrix.r_operator(pairing, tensor(m1, m2), m3, "R-check").matrix
    mismatch = la.first_mismatch(lhs, rhs)
    report = {"instance": f"{m1.name} (x) {m2.name} (x) {m3.name}",
              "pass": mismatch is None}
    if mismatch is not None:
        i, j, a, b = mismatch
        report["counterexample"] = {
            "row": i, "col": j, "lhs": a.to_str(), "rhs": b.to_str()}
    return report


def table_route_r(pairing, m1, m2):
    return la.mat_mul(la.inverse(kappa_matrix(m1, m2)),
                      xi_operator(pairing, m1, m2))


def test_pairing_generator_values(alg1, pairing1):
    d = alg1.datum
    expected = (alg1.qi(0, -1) - alg1.qi(0)).inverse()
    assert pairing1.pair(alg1.e(0), alg1.f(0)) == expected
    assert pairing1.pair(alg1.k((1,)), alg1.k((1,))) == \
        d.q_power(-d.pair_ww((1,), (1,)))
    assert pairing1.pair(alg1.k((2,)), alg1.f(0)).is_zero()
    assert pairing1.pair(alg1.e(0), alg1.k((2,))).is_zero()


def test_pairing_rejects_wrong_borel(alg1, pairing1):
    with pytest.raises(BorelError):
        pairing1.pair(alg1.f(0), alg1.f(0))
    with pytest.raises(BorelError):
        pairing1.pair(alg1.e(0), alg1.e(0))


def test_pairing_coproduct_axiom_oracle(alg2, pairing2):
    # (x, y1 y2) = (Delta(x), y1 (x) y2), evaluated through the coproduct
    x = alg2.e_word((0, 1))
    y1, y2 = alg2.f(0), alg2.f(1)
    lhs = pairing2.pair(x, y1 * y2)
    rhs = alg2.datum.zero()
    for (m0, m1), c in alg2.coproduct(x).items():
        rhs = rhs + c * pairing2.pair(alg2.mono_element(m0), y1) \
            * pairing2.pair(alg2.mono_element(m1), y2)
    assert lhs == rhs
    # independent expansion for the two-letter instance (e1e2, f1f2)
    base = (alg2.qi(0, -1) - alg2.qi(0)).inverse()
    assert pairing2.pair_words((0, 1), (0, 1)) == base * base


def test_pairing_mirror_axiom(alg2, pairing2):
    # (x1 x2, y) = (x2 (x) x1, Delta(y))
    x1, x2 = alg2.e(0), alg2.e(1)
    y = alg2.f(0) * alg2.f(1)
    lhs = pairing2.pair(x1 * x2, y)
    rhs = alg2.datum.zero()
    for (m0, m1), c in alg2.coproduct(y).items():
        rhs = rhs + c * pairing2.pair(x2, alg2.mono_element(m0)) \
            * pairing2.pair(x1, alg2.mono_element(m1))
    assert lhs == rhs


def test_pairing_nondegenerate(alg1, alg2, pairing1, pairing2):
    for beta in [(1,), (2,), (3,), (4,)]:
        mat = pairing1.table(beta)
        la.inverse(mat)  # raises if singular
    for beta in [(1, 0), (1, 1), (2, 1), (2, 2), (3, 1)]:
        mat = pairing2.table(beta)
        la.inverse(mat)


def test_xi_examples(alg1, alg2, pairing1, pairing2):
    assert xi_element(pairing1, (0,))[0][2].is_one()
    [(x, y, c)] = xi_element(pairing1, (1,))
    assert c == alg1.qi(0, -1) - alg1.qi(0)
    assert x == alg1.e(0) and y == alg1.f(0)
    # inverse-transpose of the pairing table at a 2x2 degree
    table = pairing2.table((1, 1))
    coeffs = pairing2.xi_coefficients((1, 1))
    assert la.mat_eq(la.mat_mul(la.transpose(coeffs), table),
                     la.identity(2, alg2.datum.l0))


def test_canonical_element_property(alg2, pairing2):
    # contracting Xi_beta against (x, .) reproduces x
    beta = (1, 1)
    words = alg2.basis(beta).free_words
    for wx in words:
        acc = {w: alg2.datum.zero() for w in words}
        for x, y, c in xi_element(pairing2, beta):
            val = pairing2.pair(alg2.e_word(wx), y)
            for (fw, lam, ew), cx in x.terms.items():
                acc[ew] = acc[ew] + c * val * cx
        for w in words:
            expected = alg2.datum.one() if w == wx else alg2.datum.zero()
            assert acc[w] == expected


def test_r_trivial_factor(alg1, pairing1):
    triv = simple(alg1, (0,))
    v = simple(alg1, (2,))
    rc = r_operator(pairing1, triv, v, "R-check")
    assert la.mat_eq(rc.matrix, la.identity(v.dim, alg1.datum.l0))


def test_r_on_fundamental_square(alg1, pairing1):
    v = simple(alg1, (1,))
    r = r_operator(pairing1, v, v, "R")
    d = alg1.datum
    off_diag = [(i, j) for i in range(4) for j in range(4)
                if i != j and not r.matrix[i][j].is_zero()]
    assert off_diag == [(1, 2)]
    # independent oracle: solve the intertwiner system directly
    vv = r.source
    rows = []
    rhs = []

    def add_eq(mat_l, mat_r):
        # unknown M: M mat_l = mat_r M entrywise -> linear in M's entries
        n = 4
        for a in range(n):
            for b in range(n):
                row = [d.zero() for _ in range(n * n)]
                for k in range(n):
                    row[a * n + k] = row[a * n + k] + mat_l[k][b]
                    row[k * n + b] = row[k * n + b] - mat_r[a][k]
                rows.append(row)
                rhs.append(d.zero())

    flip = la.zeros(4, 4, d.l0)
    one = d.one()
    for a in range(2):
        for b in range(2):
            flip[b * 2 + a][a * 2 + b] = one
    add_eq(vv.gen[("e", 0)], vv.gen[("e", 0)])
    add_eq(vv.gen[("f", 0)], vv.gen[("f", 0)])
    # triangular normalization: on v_top (x) w the operator is
    # q^{-(top, wt w)} flip
    kap = kappa_matrix(v, v)
    for b in range(2):
        col = 0 * 2 + b
        for arow in range(4):
            row = [d.zero() for _ in range(16)]
            row[arow * 4 + col] = one
            rows.append(row)
            expected = kap[col][col].inverse() if arow == b * 2 + 0 \
                else d.zero()
            rhs.append(expected)
    sol = la.solve(rows, rhs)
    assert sol is not None
    rcheck = r_operator(pairing1, v, v, "R-check").matrix
    oracle = [[sol[a * 4 + b] for b in range(4)] for a in range(4)]
    assert la.mat_eq(oracle, rcheck)


def test_r_inverse_formula(alg1, alg2, pairing1, pairing2):
    for alg, pairing, lam in [(alg1, pairing1, (1,)), (alg2, pairing2, (1, 0))]:
        v = simple(alg, lam)
        r = r_operator(pairing, v, v, "R")
        rinv = r_operator(pairing, v, v, "R-inverse")
        ident = la.identity(v.dim * v.dim, alg.datum.l0)
        assert la.mat_eq(la.mat_mul(r.matrix, rinv.matrix), ident)
        assert la.mat_eq(la.mat_mul(rinv.matrix, r.matrix), ident)


def test_rcheck_is_module_map(alg2, pairing2):
    v1 = simple(alg2, (1, 0))
    v2 = simple(alg2, (0, 1))
    rc = r_operator(pairing2, v1, v2, "R-check")
    assert module_map_commutes(rc.source, rc.target, rc.matrix)


def test_hexagons(alg1, alg2, pairing1, pairing2):
    v = simple(alg1, (1,))
    assert hexagon_check(pairing1, v, v, v)["pass"]
    triv = simple(alg1, (0,))
    assert hexagon_check(pairing1, triv, v, v)["pass"]
    v1 = simple(alg2, (1, 0))
    v2 = simple(alg2, (0, 1))
    assert hexagon_check(pairing2, v1, v1, v2)["pass"]


def test_naturality_under_projection(alg1, ring1, pairing1):
    # (p (x) id) R = R (p (x) id) for the product projection
    # p: V(w) (x) V(w) -> V(2w) built from coordinate multiplication
    d = alg1.datum
    v = simple(alg1, (1,))
    v2 = simple(alg1, (2,))
    tgt = ring1.module((2,))
    cols = []
    basis = ring1.grade_basis((1,))   # in the slot order of V(w)
    for pa in basis:
        for pb in basis:
            cols.append(ring1.embed_full(tgt, ring1.mult(pa, pb)))
    p = la.transpose(cols)
    # p must be a module map before it can be natural
    assert module_map_commutes(tensor(v, v), v2, p)
    r_big = r_operator(pairing1, tensor(v, v), v, "R").matrix
    r_2v = r_operator(pairing1, v2, v, "R").matrix
    ident = la.identity(v.dim, d.l0)
    lhs = la.mat_mul(la.kron(p, ident), r_big)
    rhs = la.mat_mul(r_2v, la.kron(p, ident))
    assert la.mat_eq(lhs, rhs)


def test_r_refuses_truncated(alg1, pairing1):
    t = verma(alg1, (1,), (2,))
    v = simple(alg1, (1,))
    with pytest.raises(TruncationError):
        r_operator(pairing1, t, v, "R")


def test_pairing_tables_concurrent(alg2):
    import threading
    pairing = DrinfeldPairing(alg2)
    results = []
    errors = []

    def worker():
        try:
            results.append(("xi", pairing.xi_coefficients((1, 1))))
            results.append(("table", pairing.table((2, 1))))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # appends from different threads interleave: compare like with like
    by_kind = {"xi": [], "table": []}
    for kind, value in results:
        by_kind[kind].append(value)
    assert {k: len(v) for k, v in by_kind.items()} == {"xi": 4, "table": 4}
    for values in by_kind.values():
        assert all(la.mat_eq(v, values[0]) for v in values)
        # the first stored value wins: every thread gets that one object
        assert all(v is values[0] for v in values)
    # a race that caches a wrong matrix must not agree with a cold
    # single-threaded computation
    fresh = DrinfeldPairing(alg2)
    assert la.mat_eq(by_kind["xi"][0], fresh.xi_coefficients((1, 1)))
    assert la.mat_eq(by_kind["table"][0], fresh.table((2, 1)))


@pytest.mark.parametrize("typ", ["A1", "A2", "B2"])
def test_r_matches_table_route_on_fundamentals(typ):
    datum = preset(typ)
    alg = UAlgebra(datum)
    pairing = DrinfeldPairing(alg)
    mods = [simple(alg, datum.fundamental(i)) for i in range(datum.rank)]
    for a in mods:
        for b in mods:
            r = r_operator(pairing, a, b, "R").matrix
            assert la.mat_eq(r, table_route_r(pairing, a, b)), (a.name, b.name)


def test_r_matches_table_route_on_tensor_carrier(alg2, pairing2):
    v = simple(alg2, (1, 0))
    vv = tensor(v, v)
    r = r_operator(pairing2, vv, v, "R").matrix
    assert la.mat_eq(r, table_route_r(pairing2, vv, v))


def test_r_matches_table_route_on_g2(g2):
    alg = UAlgebra(g2)
    pairing = DrinfeldPairing(alg)
    v = simple(alg, g2.fundamental(1))
    r = r_operator(pairing, v, v, "R").matrix
    assert la.mat_eq(r, table_route_r(pairing, v, v))


def test_r_reads_no_pairing_table_and_inverts_no_carrier(monkeypatch, a2):
    def refuse(self, beta):
        raise AssertionError(f"pairing table read at {beta}")

    def refuse_inverse(mat):
        raise AssertionError(f"a {len(mat)}x{len(mat)} matrix inverted")

    monkeypatch.setattr(DrinfeldPairing, "xi_coefficients", refuse)
    monkeypatch.setattr(DrinfeldPairing, "table", refuse)
    monkeypatch.setattr(la, "inverse", refuse_inverse)
    # fresh modules on a fresh algebra: nothing memoized on them yet
    alg2 = UAlgebra(a2)
    pairing = DrinfeldPairing(alg2)
    v1, v2 = simple(alg2, (1, 0)), simple(alg2, (0, 1))
    r_operator(pairing, v1, v2, "R")
    rc = r_operator(pairing, v1, v2, "R-check")
    # the braid inverses T_i^-1 on the factors are closed forms too: R
    # inverts no matrix at all
    assert module_map_commutes(rc.source, rc.target, rc.matrix)


def test_r_inverse_and_r_check_build_no_kappa_matrix(monkeypatch, a2):
    diagonal = la.diagonal

    def no_kappa(entries, l0):
        # the identity R-inverse starts from is allowed, kappa is not
        if not all(x.is_one() for x in entries):
            raise AssertionError("dense kappa matrix built")
        return diagonal(entries, l0)

    alg = UAlgebra(a2)
    pairing = DrinfeldPairing(alg)
    v1, v2 = simple(alg, (1, 0)), simple(alg, (0, 1))
    # the dense product with kappa, as R-inverse was composed before
    acc = la.mat_mul(r_operator(pairing, v1, v2, "R-inverse").matrix,
                     la.inverse(kappa_matrix(v1, v2)))
    expected_r = la.mat_mul(dense_theta(v1, v2),
                            la.inverse(kappa_matrix(v1, v2)))
    with monkeypatch.context() as mp:
        mp.setattr(la, "diagonal", no_kappa)
        rinv = r_operator(pairing, v1, v2, "R-inverse").rows
        r = r_operator(pairing, v1, v2, "R").rows
        rc = r_operator(pairing, v1, v2, "R-check")
        kappa = r_operator(pairing, v1, v2, "kappa").rows
    l0 = a2.l0
    assert dense_rows(rinv, l0) == la.mat_mul(acc, kappa_matrix(v1, v2))
    assert dense_rows(r, l0) == expected_r
    assert dense_rows(kappa, l0) == kappa_matrix(v1, v2)
    ident = la.identity(v1.dim * v2.dim, l0)
    assert la.mat_eq(la.mat_mul(dense_rows(r, l0), dense_rows(rinv, l0)),
                     ident)
    assert module_map_commutes(rc.source, rc.target, rc.matrix)


def _is_identity(mat):
    return len(mat) > 1 and la.mat_eq(mat, la.identity(len(mat),
                                                        mat[0][0].l0))


def test_ordered_products_start_at_their_first_factor(monkeypatch):
    """T_w, the braids of a literal word, the root vectors and Theta are
    products that multiply by no identity; each equals the same product
    started at the identity."""
    datum = preset("B2")
    alg = UAlgebra(datum)
    pairing = DrinfeldPairing(alg)
    v1, v2 = simple(alg, (1, 0)), simple(alg, (0, 1))
    w0 = datum.longest_word()

    def from_identity(mats, n, left=False):
        out = la.identity(n, datum.l0)
        for m in mats:
            out = la.mat_mul(m, out) if left else la.mat_mul(out, m)
        return out

    def old_root_vectors(mod, kind):
        out = []
        for k, i in enumerate(w0):
            t = from_identity([braid_on_module(mod, j) for j in w0[:k]],
                              mod.dim)
            tinv = from_identity([braid_on_module(mod, j, inverse=True)
                                  for j in w0[:k]], mod.dim, left=True)
            out.append(la.mat_mul(t, la.mat_mul(mod.gen_matrix(kind, i),
                                                tinv)))
        return out

    expected = {
        "T_w0": from_identity([braid_on_module(v1, i) for i in w0], v1.dim),
        "T_w0^-1": from_identity([braid_on_module(v1, i, inverse=True)
                                  for i in reversed(w0)], v1.dim),
        "along": from_identity([braid_on_module(v2, i) for i in (0, 1, 0)],
                               v2.dim),
        "E": old_root_vectors(v2, "e"),
        "Theta": dense_theta(v2, v1, old_root_vectors),
    }
    calls = []
    real = la.mat_mul
    monkeypatch.setattr(la, "mat_mul",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    got = {
        "T_w0": braid_word(v1, w0),
        "T_w0^-1": braid_word(v1, w0, inverse=True),
        "along": suites._braid_along(v2, (0, 1, 0)),
        "E": rmatrix.root_vectors(v2, "e"),
        "Theta": dense_rows(rmatrix.theta_matrix(v2, v1), datum.l0),
    }
    assert calls and not [ab for ab in calls if any(map(_is_identity, ab))]
    for key in ("T_w0", "T_w0^-1", "along", "Theta"):
        assert la.mat_eq(got[key], expected[key]), key
    assert all(la.mat_eq(a, b) for a, b in zip(got["E"], expected["E"]))
    # the empty product is the identity, and a new matrix
    empty = braid_word(v1, ())
    assert la.mat_eq(empty, la.identity(v1.dim, datum.l0))
    single = braid_word(v1, (0,))
    assert single is not braid_on_module(v1, 0) and \
        la.mat_eq(single, braid_on_module(v1, 0))


def _r_inverse_pairs(typ):
    """Module pairs for the dense oracle: every pair of fundamental
    modules (G2: V(w2) only, V(w1) is the 14-dimensional adjoint), and on
    B2 the hexagon's carrier V(w2) (x) V(w1) as first factor."""
    datum = preset(typ)
    alg = UAlgebra(datum)
    lams = [datum.fundamental(i) for i in range(datum.rank)]
    mods = [simple(alg, lam) for lam in (lams[1:] if typ == "G2" else lams)]
    pairs = [(a, b) for a in mods for b in mods]
    if typ == "A1":
        pairs.append((simple(alg, (2,)), mods[0]))
    if typ == "B2":
        pairs.append((tensor(mods[1], mods[0]), mods[1]))
    return DrinfeldPairing(alg), pairs


@pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
def test_r_inverse_matches_dense_accumulation(typ):
    pairing, pairs = _r_inverse_pairs(typ)
    for a, b in pairs:
        rinv = r_operator(pairing, a, b, "R-inverse").matrix
        assert rinv == dense_r_inverse(pairing, a, b), (a.name, b.name)


@pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
def test_r_inverse_forms_no_product_in_u(monkeypatch, typ):
    """R-inverse walks the letters of S(e_w) and k_beta f_w on the factor
    modules and adds the cells of each x_a (x) D_a to identity rows: it
    forms no antipode, product or normal form in U, no module action and
    no dense accumulator.  The pairing tables' inverses C_beta are read
    from the memo the dense oracle filled."""
    pairing, pairs = _r_inverse_pairs(typ)
    expected = [dense_r_inverse(pairing, a, b) for a, b in pairs]

    def refuse(*args):
        raise AssertionError("product in U or dense accumulator")

    with monkeypatch.context() as mp:
        for owner, name in [(UAlgebra, "antipode"),
                            (UAlgebra, "normal_form_word"),
                            (weightmod.WeightModule, "act"),
                            (la, "zeros"), (la, "identity"),
                            (la, "add_kron")]:
            mp.setattr(owner, name, refuse)
        got = [rmatrix.r_inverse_matrix(pairing, a, b) for a, b in pairs]
    for (a, b), rows, dense in zip(pairs, got, expected):
        assert all(x.num for row in rows for x in row.values())
        assert dense_rows(rows, a.datum.l0) == dense, (a.name, b.name)
    # the U-level pairs lemma-rl reads stay memoized per degree
    beta = max(contributing_degrees(pairing.datum, *pairs[-1]), key=sum)
    assert pairing.inverse_components(list(beta)) is \
        pairing.inverse_components(beta)


def test_assembly_uses_no_dense_helpers(monkeypatch, a2):
    def refuse(*args):
        raise AssertionError("dense assembly")

    alg = UAlgebra(a2)
    pairing = DrinfeldPairing(alg)
    v1, v2 = simple(alg, (1, 0)), simple(alg, (0, 1))
    u = alg.e(0) * alg.f(0) + alg.f(1) * alg.e(1)
    expected = (tensor(v1, v2).gen, v1.act(u),
                dense_r_inverse(DrinfeldPairing(alg), v1, v2))
    for name in ("mat_add", "mat_scale", "kron"):
        monkeypatch.setattr(la, name, refuse)
    # tensor is memoized on v1: rebuild the carrier past the memo
    got = (weightmod._tensor(v1, v2).gen, v1.act(u),
           r_operator(pairing, v1, v2, "R-inverse").matrix)
    assert got == expected


def dense_commutes(source, target, m):
    """The dense verdict ``module_map_commutes`` replaced: M g = g' M for
    every e_i and f_i and for k of every fundamental weight."""
    datum = source.datum
    gens = [(source.gen[key], target.gen[key]) for key in source.gen]
    gens += [(source.k_matrix(lam), target.k_matrix(lam))
             for lam in map(datum.fundamental, range(datum.rank))]
    return all(la.mat_eq(la.mat_mul(m, g), la.mat_mul(h, m))
               for g, h in gens)


def test_module_map_commutes_matches_dense_products(monkeypatch):
    """The cellwise verdict equals the dense M g = g' M on the B2 R-check
    carriers, on a target whose e_0 has one nonzero cell doubled, and on
    an R-check with one cell added across two weights."""
    datum = preset("B2")
    alg = UAlgebra(datum)
    pairing = DrinfeldPairing(alg)
    v1, v2 = simple(alg, (1, 0)), simple(alg, (0, 1))
    cases = []
    for a, b in [(v1, v1), (v1, v2)]:
        rc = r_operator(pairing, a, b, "R-check")
        cases.append((rc.source, rc.target, rc.matrix))
    src, tgt, m = cases[-1]
    gen = dict(tgt.gen)
    e0 = gen[("e", 0)] = [list(row) for row in gen[("e", 0)]]
    r, c = next((r, c) for r, row in enumerate(e0)
                for c, x in enumerate(row) if x.num)
    e0[r][c] = e0[r][c] + e0[r][c]
    cases.append((src, weightmod.WeightModule(
        alg, "left", tgt.index_weights, gen, tgt.missing_exact, True), m))
    crossed = [list(row) for row in m]
    r, c = next((r, c) for r, w in enumerate(tgt.index_weights)
                for c, u in enumerate(src.index_weights)
                if w != u and not m[r][c].num)
    crossed[r][c] = datum.one()
    cases.append((src, tgt, crossed))
    expected = [dense_commutes(*case) for case in cases]
    assert expected == [True, True, False, False]

    def refuse(*args):
        raise AssertionError("dense product")

    monkeypatch.setattr(la, "mat_mul", refuse)
    monkeypatch.setattr(la, "mat_eq", refuse)
    assert [module_map_commutes(*case) for case in cases] == expected


def test_r_check_builds_each_carrier_once(monkeypatch, a2):
    alg = UAlgebra(a2)
    pairing = DrinfeldPairing(alg)
    v1, v2 = simple(alg, (1, 0)), simple(alg, (0, 1))
    r = r_operator(pairing, v1, v2, "R").matrix
    built = []
    real = rmatrix.tensor
    monkeypatch.setattr(rmatrix, "tensor",
                        lambda m1, m2: built.append((m1, m2)) or real(m1, m2))
    rc = r_operator(pairing, v1, v2, "R-check")
    # the carriers are built when read, once each
    assert built == []
    assert (rc.source.name, rc.target.name) == \
        (tensor(v1, v2).name, tensor(v2, v1).name)
    assert rc.source is rc.source and rc.target is rc.target
    assert built == [(v1, v2), (v2, v1)]
    # the flip permutes the rows of R
    assert rc.matrix == [r[a * v2.dim + b] for b in range(v2.dim)
                         for a in range(v1.dim)]
    assert module_map_commutes(rc.source, rc.target, rc.matrix)


def test_theta_and_root_vectors_are_built_once(monkeypatch):
    """The B2 R-checks with the hexagon on V(w2) (x) V(w1) (x) V(w2) build
    Theta once per module pair and the root vectors once per module and
    kind, so R-check reuses R's Theta."""
    datum = preset("B2")
    alg = UAlgebra(datum)
    pairing = DrinfeldPairing(alg)
    v1, v2 = simple(alg, (1, 0)), simple(alg, (0, 1))
    thetas, roots = Counter(), Counter()

    def count(counter, name, key):
        real = getattr(rmatrix, name)
        monkeypatch.setattr(rmatrix, name, lambda m, x: counter.update(
            [(m.name, key(x))]) or real(m, x))

    count(thetas, "_theta_matrix", lambda m2: m2.name)
    count(roots, "_root_vectors", lambda kind: kind)
    for a, b in [(v1, v1), (v1, v2)]:
        r = r_operator(pairing, a, b, "R").matrix
        rinv = r_operator(pairing, a, b, "R-inverse").matrix
        assert la.mat_eq(la.mat_mul(r, rinv),
                         la.identity(a.dim * b.dim, datum.l0))
        r_operator(pairing, a, b, "R-check")
    assert hexagon_check(pairing, v2, v1, v2)["pass"]
    v21 = tensor(v2, v1).name
    assert thetas == Counter({(v1.name, v1.name): 1, (v1.name, v2.name): 1,
                              (v2.name, v2.name): 1, (v21, v2.name): 1})
    assert roots == Counter({(v1.name, "e"): 1, (v1.name, "f"): 1,
                             (v2.name, "e"): 1, (v2.name, "f"): 1,
                             (v21, "e"): 1})


def _theta_carriers():
    """(m1, m2) pairs for Theta: the A1 and A2 fundamental pairs, the B2
    hexagon carrier (V(w2) (x) V(w1)) (x) V(w2) and G2 V(w2) (x) V(w2)."""
    out = []
    for typ in ("A1", "A2"):
        datum = preset(typ)
        alg = UAlgebra(datum)
        mods = [simple(alg, datum.fundamental(i)) for i in range(datum.rank)]
        out += [(a, b) for a in mods for b in mods]
    b2 = UAlgebra(preset("B2"))
    v1, v2 = simple(b2, (1, 0)), simple(b2, (0, 1))
    out.append((tensor(v2, v1), v2))
    g2 = UAlgebra(preset("G2"))
    v = simple(g2, g2.datum.fundamental(1))
    out.append((v, v))
    return out


def test_theta_matches_the_dense_route():
    for m1, m2 in _theta_carriers():
        rows = rmatrix.theta_matrix(m1, m2)
        assert all(x.num for row in rows for x in row.values())
        assert dense_rows(rows, m1.datum.l0) == dense_theta(m1, m2), \
            (m1.name, m2.name)


def test_theta_builds_no_carrier_sized_matrix(monkeypatch):
    """Theta on an n-dim carrier calls no identity(n) and no kron: the
    factors are Kronecker sums of small powers."""
    b2 = UAlgebra(preset("B2"))
    v1, v2 = simple(b2, (1, 0)), simple(b2, (0, 1))
    m1 = tensor(v2, v1)
    expected = dense_theta(m1, v2)   # also memoizes the root vectors
    n = m1.dim * v2.dim
    sizes = []
    identity = la.identity

    def spy(k, l0):
        sizes.append(k)
        return identity(k, l0)

    def refuse(*args):
        raise AssertionError("carrier-sized route")

    monkeypatch.setattr(la, "identity", spy)
    monkeypatch.setattr(la, "kron", refuse)
    assert dense_rows(rmatrix.theta_matrix(m1, v2), b2.datum.l0) == expected
    assert n not in sizes


def test_theta_of_a_non_nilpotent_pair_raises(monkeypatch, alg1):
    v = simple(alg1, (1,))
    ident = la.identity(v.dim, v.datum.l0)
    monkeypatch.setattr(rmatrix, "root_vectors", lambda mod, kind: [ident])
    with pytest.raises(TruncationError, match="not nilpotent"):
        rmatrix._theta_matrix(v, v)


def series_matrix(a, b, t_scale, c, l0):
    """exp_t(c a (x) b) made dense: identity rows plus ``_series_cells``."""
    one = QScalar.one(l0)
    rows = [{r: one} for r in range(len(a) * len(b))]
    for r, cells in rmatrix._series_cells(a, b, t_scale, c, l0).items():
        rows[r].update(cells)
    return dense_rows(rows, l0)


def series_factors(alg):
    """(a, b, t_scale, c) for each q-exponential qflag builds on the
    fitting fundamental V: Theta's factors on V (x) V, and both
    exponentials of Lusztig's factorization of T_i on V (x) V."""
    datum = alg.datum
    v = simple(alg, suites._fitting_fundamental(datum))
    out = []
    for i, e, f in zip(datum.longest_word(), rmatrix.root_vectors(v, "e"),
                       rmatrix.root_vectors(v, "f")):
        qi = datum.q_power(datum.d(i))
        out.append((e, f, -datum.d(i), qi.inverse() - qi))
    for i in range(datum.rank):
        di = datum.d(i)
        qi = datum.q_power(di)
        spread = qi - qi.inverse()
        e, f = v.act(alg.e(i)), v.act(alg.f(i))
        ek = la.mat_mul(e, v.k_matrix(tuple(-x for x in datum.alpha(i))))
        fk = la.mat_mul(f, v.k_matrix(datum.alpha(i)))
        out += [(f, e, di, spread), (ek, fk, di, qi ** -2 * spread)]
    return out


@pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
def test_series_cells_match_the_dense_exponential(typ):
    alg = UAlgebra(preset(typ))
    l0 = alg.datum.l0
    for a, b, t_scale, c in series_factors(alg):
        want = exp_matrix(la.kron(la.mat_scale(a, c), b), t_scale, l0)
        assert series_matrix(a, b, t_scale, c, l0) == want
        cells = rmatrix._series_cells(a, b, t_scale, c, l0)
        assert all(x.num for row in cells.values() for x in row.values())


def test_series_cells_stop_at_the_first_zero_power(monkeypatch, alg1):
    """f**2 != 0 and f**3 = 0 on V(2): two terms, four products (each
    factor's square and cube), none with the identity."""
    l0 = alg1.datum.l0
    v = simple(alg1, (2,))
    f, e = v.gen_matrix("f", 0), v.gen_matrix("e", 0)
    before = ([list(row) for row in f], [list(row) for row in e])
    qi = alg1.datum.q_power(1)
    c = qi - qi.inverse()
    want = exp_matrix(la.kron(la.mat_scale(f, c), e), 1, l0)
    calls = []
    real = la.mat_mul
    monkeypatch.setattr(la, "mat_mul",
                        lambda a, b: calls.append(b) or real(a, b))
    assert series_matrix(f, e, 1, c, l0) == want
    assert len(calls) == 4 and not any(la.is_identity(b) for b in calls)
    assert (f, e) == before
    calls.clear()
    zero = la.zeros(3, 3, l0)
    assert rmatrix._series_cells(zero, e, 1, c, l0) == {}
    assert calls == []


def test_inverse_components_are_computed_once(monkeypatch, a2):
    alg = UAlgebra(a2)
    pairing = DrinfeldPairing(alg)
    calls = Counter()
    real = DrinfeldPairing._inverse_components

    def spy(self, beta):
        calls[beta] += 1
        return real(self, beta)

    monkeypatch.setattr(DrinfeldPairing, "_inverse_components", spy)
    betas = [(1, 0), (1, 1), (2, 1), (1, 1)]
    got = [pairing.inverse_components(list(b)) for b in betas]
    assert got[1] is got[3]
    assert calls == Counter({(1, 0): 1, (1, 1): 1, (2, 1): 1})
    fresh = DrinfeldPairing(UAlgebra(a2))
    for beta, comps in zip(betas, got):
        assert [(x.terms, y.terms) for x, y in comps] == \
            [(x.terms, y.terms) for x, y in fresh.inverse_components(beta)]


def _hexagon_cases():
    """The B2 hexagon V(w2) (x) V(w1) (x) V(w2) and G2 V(w2) (x) V(w2) (x)
    V(w2), each with its pairing."""
    b2 = UAlgebra(preset("B2"))
    v1, v2 = simple(b2, (1, 0)), simple(b2, (0, 1))
    g2 = UAlgebra(preset("G2"))
    w = simple(g2, g2.datum.fundamental(1))
    return [(DrinfeldPairing(b2), (v2, v1, v2)),
            (DrinfeldPairing(g2), (w, w, w))]


def test_hexagon_matches_the_dense_route(monkeypatch):
    """The sparse left side gives the dense route's report, also when one
    R-check has a corrupted cell: the last nonzero cell of the right side
    negated, or q written into the first zero cell of the right side or
    of r23, a cell that only one side then carries.  It forms no
    carrier-sized identity, kron or product."""
    real = rmatrix.r_operator
    for pairing, (m1, m2, m3) in _hexagon_cases():
        expected = dense_hexagon_check(pairing, m1, m2, m3)
        assert expected["pass"]
        n = m1.dim * m2.dim * m3.dim
        sizes = []
        identity = la.identity

        def refuse(*args):
            raise AssertionError("carrier-sized route")

        with monkeypatch.context() as mp:
            mp.setattr(la, "identity",
                       lambda k, l0: sizes.append(k) or identity(k, l0))
            mp.setattr(la, "kron", refuse)
            mp.setattr(la, "mat_mul", refuse)
            assert hexagon_check(pairing, m1, m2, m3) == expected
        assert n not in sizes

        def negate_rhs(rows):
            r = max(k for k, row in enumerate(rows) if row)
            c = max(rows[r])
            rows[r][c] = -rows[r][c]

        def fill(rows):
            r, c = next((r, c) for r, row in enumerate(rows)
                        for c in range(len(rows)) if c not in row)
            rows[r][c] = pairing.datum.q_power(1)

        for target, corrupt in ((m1.dim * m2.dim, negate_rhs),
                                (m1.dim * m2.dim, fill), (m2.dim, fill)):
            def spoiled(p, a, b, flavor="R", target=target, corrupt=corrupt):
                op = real(p, a, b, flavor)
                if a.dim == target and b is m3:
                    op.rows = [dict(row) for row in op.rows]
                    corrupt(op.rows)
                return op

            with monkeypatch.context() as mp:
                mp.setattr(rmatrix, "r_operator", spoiled)
                bad = dense_hexagon_check(pairing, m1, m2, m3)
                assert not bad["pass"]
                assert hexagon_check(pairing, m1, m2, m3) == bad


def test_hexagon_builds_no_triple_carrier(monkeypatch):
    """hexagon_check reads the R-checks' rows: it builds no tensor carrier
    of dim1*dim2*dim3, no matrix of that size, and no dense R-operator."""
    for pairing, (m1, m2, m3) in _hexagon_cases():
        n = m1.dim * m2.dim * m3.dim
        carriers, sizes = [], []
        real_tensor, zeros = weightmod._tensor, la.zeros

        def refuse(*args):
            raise AssertionError("carrier-sized route")

        with monkeypatch.context() as mp:
            mp.setattr(weightmod, "_tensor", lambda a, b: carriers.append(
                a.dim * b.dim) or real_tensor(a, b))
            mp.setattr(la, "zeros", lambda r, c, l0: sizes.append(
                max(r, c)) or zeros(r, c, l0))
            mp.setattr(la, "from_rows", refuse)
            mp.setattr(la, "inverse", refuse)
            assert hexagon_check(pairing, m1, m2, m3)["pass"]
        assert carriers and n not in carriers
        assert sizes and n not in sizes
