"""Acceptance suite: one test per criterion, all exact (zero tolerance).

Each test prints a single pass/fail line; run with `pytest -s
tests/test_acceptance.py` to see them.  Instances and bounds follow the
stated desk scale: rank <= 2, bounded grading, everything checked by exact
matrix identities.
"""

import itertools
import json
import subprocess
import sys

import pytest

from qflag import linalg as la
from qflag.bimodule import EBimodule, key_lemma_characters
from qflag.cartan import kostant_dim, preset, verma_character, weyl_character
from qflag.center import annihilator_check, center_solve, \
    commutes_with_generators, partial_z_is_sigma_zeta, zeta_separation_scan
from qflag.coordring import CoordRing
from qflag.diffops import DWindow, lemma_rl_check, relations_check, z_w_check
from qflag.enveloping import UAlgebra
from qflag.errors import QflagError
from qflag.rmatrix import DrinfeldPairing, hexagon_check, r_operator
from qflag.scalars import exp_t_coefficient
from qflag.suites import _braid_along, _braid_element
from qflag.thetarep import theta_build, theta_faithfulness_probe
from qflag.weightmod import (braid_on_module, braid_word,
                             check_module_relations, module_map_commutes,
                             restricted_dual, simple, tensor, verma)


def record(number: int, description: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_presentation_soundness(alg1, alg2):
    failures = []
    mods = []
    mods.append(verma(alg1, (0,), (4,)))
    mods.append(verma(alg1, (2,), (4,)))
    mods.append(verma(alg1, (1,), (4,), side="right"))
    mods.append(verma(alg2, (0, 0), (2, 2)))
    mods.append(verma(alg2, (1, 0), (2, 2)))
    mods.append(verma(alg2, (1, 1), (2, 2), side="right"))
    for n in range(7):
        mods.append(simple(alg1, (n,)))
    for lam in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        mods.append(simple(alg2, lam))
    mods.append(restricted_dual(simple(alg2, (1, 1))))
    mods.append(tensor(simple(alg1, (1,)), simple(alg1, (2,))))
    for mod in mods:
        failures.extend(check_module_relations(mod))
    record(1, "defining relations exact on Vermas (depth 4), simples, "
              f"duals and tensors ({len(mods)} modules)", not failures)


def test_criterion_02_pbw_dimensions(alg2, g2):
    ok = True
    for a in range(7):
        for b in range(7 - a):
            ok = ok and alg2.basis((a, b)).dim == kostant_dim(alg2.datum,
                                                              (a, b))
    algg = UAlgebra(g2)
    for a in range(5):
        for b in range(5 - a):
            ok = ok and algg.basis((a, b)).dim == kostant_dim(g2, (a, b))
    record(2, "plus-part dimensions equal partition counts "
              "(A2 height 6, G2 height 4)", ok)


def test_criterion_03_weyl_characters(alg1, alg2):
    ok = True
    for n in range(7):
        ok = ok and simple(alg1, (n,)).character() == \
            weyl_character(alg1.datum, (n,))
    for a in range(4):
        for b in range(4 - a):
            lam = (a, b)
            ok = ok and simple(alg2, lam).character() == \
                weyl_character(alg2.datum, lam)
    record(3, "simple-module weight dimensions match the character "
              "formula (A1 <= 6w, A2 a+b <= 3)", ok)


def test_criterion_04_rmatrix_axioms(alg1, alg2, pairing1, pairing2):
    ok = True
    for beta in [(1,), (2,), (3,), (4,)]:
        try:
            la.inverse(pairing1.table(beta))
        except ArithmeticError:
            ok = False
    for a in range(5):
        for b in range(5 - a):
            if a + b == 0:
                continue
            try:
                la.inverse(pairing2.table((a, b)))
            except ArithmeticError:
                ok = False
    v1 = simple(alg1, (1,))
    w1, w2 = simple(alg2, (1, 0)), simple(alg2, (0, 1))
    for alg, pairing, a, b in [(alg1, pairing1, v1, v1),
                               (alg2, pairing2, w1, w2),
                               (alg2, pairing2, w1, w1)]:
        r = r_operator(pairing, a, b, "R")
        rinv = r_operator(pairing, a, b, "R-inverse")
        ident = la.identity(a.dim * b.dim, alg.datum.l0)
        ok = ok and la.mat_eq(la.mat_mul(r.matrix, rinv.matrix), ident)
        rc = r_operator(pairing, a, b, "R-check")
        ok = ok and module_map_commutes(rc.source, rc.target, rc.matrix)
    ok = ok and hexagon_check(pairing1, v1, v1, v1)["pass"]
    ok = ok and hexagon_check(pairing2, w1, w1, w2)["pass"]
    record(4, "pairing nonsingular, inverse formula exact, flip "
              "intertwines, hexagons pass", ok)


def test_criterion_05_braid_coherence(alg1, alg2):
    ok = True
    for lam in [(1, 0), (0, 1), (1, 1)]:
        mod = simple(alg2, lam)
        # along each literal word (braid_word canonicalizes its word)
        ok = ok and la.mat_eq(_braid_along(mod, (0, 1, 0)),
                              _braid_along(mod, (1, 0, 1)))
        w0 = alg2.datum.longest_word()
        tw = braid_word(mod, w0)
        for col in range(mod.dim):
            tgt = alg2.datum.weyl_act(w0, mod.index_weights[col])
            for row in range(mod.dim):
                if not tw[row][col].is_zero():
                    ok = ok and mod.index_weights[row] == tgt
    # tensor factorization on the A1 instance
    d = alg1.datum
    v = simple(alg1, (1,))
    vv = tensor(v, v)
    t_vv = braid_on_module(vv, 0)
    tt = la.kron(braid_on_module(v, 0), braid_on_module(v, 0))
    qi = d.q_power(1)
    fe = la.kron(v.act(alg1.f(0)), v.act(alg1.e(0)))
    exp = la.identity(4, d.l0)
    power = la.identity(4, d.l0)
    step = la.mat_scale(fe, qi - qi.inverse())
    n = 0
    while True:
        n += 1
        power = la.mat_mul(step, power)
        if la.is_zero_matrix(power):
            break
        exp = la.mat_add(exp, la.mat_scale(
            power, exp_t_coefficient(n, 1, d.l0)))
    ok = ok and la.mat_eq(t_vv, la.mat_mul(tt, exp))
    # reduced-word independence of the braid automorphism on generators,
    # composed along each literal word (braid_word_on_element
    # canonicalizes its word, so it would take one route for both)
    for g in [alg2.e(0), alg2.e(1), alg2.f(0), alg2.f(1),
              alg2.k((1, 0)), alg2.k((0, 1))]:
        ok = ok and _braid_element(alg2, g, (0, 1, 0)) == \
            _braid_element(alg2, g, (1, 0, 1))
    record(5, "braid relation on modules and on the algebra, weight "
              "transport, tensor factorization", ok)


def test_criterion_06_coordinate_ring(ring1, ring2):
    ok = True
    d1, d2 = ring1.datum, ring2.datum
    # associativity: factors within the cutoff, total within desk reach
    for g1, g2, g3 in itertools.product([(1,)], repeat=3):
        for x in ring1.grade_basis(g1):
            for y in ring1.grade_basis(g2):
                for z in ring1.grade_basis(g3):
                    lhs = ring1.mult(ring1.mult(x, y), z)
                    rhs = ring1.mult(x, ring1.mult(y, z))
                    ok = ok and lhs.vec == rhs.vec
    a2_triples = [t for t in itertools.product([(1, 0), (0, 1), (1, 1)],
                                               repeat=3)
                  if sum(sum(g) for g in t) <= 4]
    for g1, g2, g3 in a2_triples:
        for x in ring2.grade_basis(g1)[:2]:
            for y in ring2.grade_basis(g2)[:2]:
                for z in ring2.grade_basis(g3)[:2]:
                    lhs = ring2.mult(ring2.mult(x, y), z)
                    rhs = ring2.mult(x, ring2.mult(y, z))
                    ok = ok and lhs.vec == rhs.vec
    # domain spot check
    for ring, grades in [(ring1, [(1,), (2,)]),
                         (ring2, [(1, 0), (0, 1)])]:
        for ga in grades:
            for gb in grades:
                for x in ring.grade_basis(ga):
                    for y in ring.grade_basis(gb):
                        ok = ok and not ring.mult(x, y).is_zero()
    # grading surjectivity
    for ring, ga, gb in [(ring1, (1,), (1,)), (ring2, (1, 0), (0, 1))]:
        tgt = ring.module(ring.datum.weight_add(ga, gb))
        cols = [ring.embed_full(tgt, ring.mult(x, y))
                for x in ring.grade_basis(ga) for y in ring.grade_basis(gb)]
        ok = ok and la.rank(cols) == tgt.dim
    # covering: sum over w of A(lam) c^w_mu = A(lam+mu)
    def covering(ring, lam, mu):
        tgt = ring.module(ring.datum.weight_add(lam, mu))
        cols = []
        for w in ring.datum.all_weyl_words():
            cw = ring.extremal(w, mu)
            for x in ring.grade_basis(lam):
                cols.append(ring.embed_full(tgt, ring.mult(x, cw)))
        return la.rank(cols) == tgt.dim

    ok = ok and covering(ring1, (1,), (1,)) and covering(ring1, (2,), (1,))
    found = None
    for lam in [(1, 0), (0, 1), (1, 1)]:
        if covering(ring2, lam, (1, 0)):
            found = lam
            break
    ok = ok and found is not None
    record(6, "associativity, domain, grading surjectivity, covering rank "
              f"(A2 threshold {found})", ok)


def test_criterion_07_ore_witnesses(ring1, ring2):
    ok = True
    for ring, lam in [(ring1, (1,)), (ring2, (1, 0))]:
        d = ring.datum
        for w in d.all_weyl_words():
            s = ring.extremal(w, lam)
            for phi in ring.grade_basis(lam):
                for side in ("left", "right"):
                    try:
                        t, psi = ring.ore_witness(phi, w, lam, side=side)
                    except QflagError:
                        ok = False
                        continue
                    if side == "left":
                        ok = ok and ring.mult(t, phi).vec == \
                            ring.mult(psi, s).vec
                    else:
                        ok = ok and ring.mult(phi, t).vec == \
                            ring.mult(s, psi).vec
    record(7, "left and right Ore witnesses found and verified for every "
              "basis element and every Weyl element", ok)


def test_criterion_08_localization_duality(ring1, ring2):
    ok = True
    for lam in [(0,), (1,), (-1,), (2,)]:
        ch = ring1.localized_character((), lam, (3,))
        expected = {g: verma_character(ring1.datum, lam, (3,)).coeff(
            ring1.datum.weight_sub_root(lam, g)) for g in ch}
        ok = ok and ch == expected
    for lam in [(1, 0), (-1, 0)]:
        ch = ring2.localized_character((), lam, (2, 1))
        expected = {g: verma_character(ring2.datum, lam, (2, 1)).coeff(
            ring2.datum.weight_sub_root(lam, g)) for g in ch}
        ok = ok and ch == expected
    record(8, "localized graded characters equal dual-Verma characters "
              "(A1 depth 3 at {0,+-w,2w}; A2 two weights)", ok)


def test_criterion_09_d_ring_identities(ring1, ring2, pairing1, pairing2):
    ok = True
    w_a1 = DWindow(ring1, pairing1, (2,))
    w_a2 = DWindow(ring2, pairing2, (1, 0))
    ok = ok and relations_check(w_a1)["pass"]
    ok = ok and relations_check(w_a2)["pass"]
    for psi in ring1.grade_basis((1,)):
        ok = ok and lemma_rl_check(w_a1, psi)["pass"]
    for psi in ring2.grade_basis((1, 0)):
        ok = ok and lemma_rl_check(w_a2, psi)["pass"]
    ok = ok and z_w_check(w_a1, 0)["pass"]
    for i in range(2):
        ok = ok and z_w_check(w_a2, i)["pass"]
    record(9, "generator relations, antipode exchange, left/right "
              "multiplication expansions and braid conjugation exact on "
              "the stated windows", ok)


def test_criterion_10_theta_representation(ring1, ring2, pairing1, pairing2):
    probes1 = [(0,), (1,), (2,)]
    rep1 = theta_build(ring1, pairing1, 4, probes1)
    probes2 = [(0, 0), (1, 0), (2, 0), (1, 1)]
    rep2 = theta_build(ring2, pairing2, 3, probes2)
    span = [[("de", 0)], [("df", 0)], [("dk", (2,))], []]
    fp = theta_faithfulness_probe(ring1, pairing1, 3, probes1, span)
    ok = rep1["pass"] and rep2["pass"] and fp["pass"] and fp["rank"] == 4
    record(10, "transpose representation: formula equals direct for all "
               "generators and probes (A1 depth 4, A2 depth 3); rank "
               "certificate meets span size", ok)


def test_criterion_11_center(alg1, ring1, pairing1):
    centers = center_solve(alg1, 2)
    nontrivial = [z for z in centers if not z.is_scalar()]
    ok = bool(nontrivial)
    window = DWindow(ring1, pairing1, (2,))
    for zc in centers:
        ok = ok and commutes_with_generators(alg1, zc.element)
        ok = ok and zc.hc_is_invariant()
        ok = ok and partial_z_is_sigma_zeta(window, zc)
    lams = [(n,) for n in range(-3, 4)]
    ok = ok and zeta_separation_scan(alg1, centers, lams)["pass"]
    zc = nontrivial[0]
    ok = ok and annihilator_check(alg1, zc, (0,), (4,))["annihilates"]
    ok = ok and annihilator_check(alg1, zc, (2,), (4,))["annihilates"]
    neg = annihilator_check(alg1, zc, (2,), (4,), character_at=(0,))
    ok = ok and not neg["annihilates"] and not neg["linked"]
    record(11, "nontrivial center at height 2: invariant image, sigma "
               "identity, linkage scan over [-3,3]w with negative "
               "control, Verma annihilation", ok)


def test_criterion_12_bimodule_and_key_lemma(ring1, ring2, pairing1,
                                             pairing2):
    ok = True
    e1 = EBimodule(ring1, pairing1, (1,), (2,))
    ok = ok and e1.unit_check()
    ok = ok and e1.bimodule_check(grades=[(1,)])["pass"]
    ok = ok and e1.flag_stability_check((1,), (1,))
    d1 = ring1.datum
    for phi in ring1.grade_basis((1,)):
        for k, nu in enumerate(e1.layer_weights):
            s = e1.commutation_scalar(k, phi, (1,))
            ok = ok and s == d1.q_pair(tuple(-x for x in nu), phi.weight)
    e2 = EBimodule(ring2, pairing2, (1, 0), (1, 1))
    ok = ok and e2.bimodule_check(grades=[(1, 0), (0, 1)])["pass"]
    for k, nu in enumerate(e2.layer_weights):
        phi = ring2.grade_basis((1, 0))[0]
        s = e2.commutation_scalar(k, phi, (0, 1))
        ok = ok and s == ring2.datum.q_pair(tuple(-x for x in nu),
                                            phi.weight)
    rep = key_lemma_characters(ring1, pairing1, (0,), (2,))
    ok = ok and rep["key2"]["iff_holds"] and rep["key3"]["iff_holds"]
    rep2 = key_lemma_characters(ring2, pairing2, (1, 0), (1, 1))
    ok = ok and rep2["key2"]["iff_holds"] and rep2["key3"]["iff_holds"]
    # lam + rho outside the cone: reported, not asserted
    neg = key_lemma_characters(ring1, pairing1, (-2,), (2,))
    ok = ok and (not neg["key2"]["precondition"]) and neg["pass"]
    ok = ok and not neg["key2"]["iff_holds"]
    record(12, "bimodule axiom, layer commutation scalars, central "
               "character separation with the out-of-cone control", ok)


def test_criterion_13_determinism():
    cmd = [sys.executable, "-m", "qflag.cli", "verify", "coord",
           "--type", "A1", "--seed", "11", "--json"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    ok = first == second and len(first) > 0
    data = json.loads(first)
    ok = ok and data["schema"] == 1 and data["pass"]
    record(13, "two runs with the same seed produce byte-identical JSON",
           ok)
