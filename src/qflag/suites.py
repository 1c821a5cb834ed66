"""Named verification suites: each runs a family of exact checks and
returns a JSON-ready report with one entry per instance, sorted by
instance key.  A failing instance carries a minimal counterexample."""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from . import linalg
from .bimodule import EBimodule, key_lemma_characters
from .cartan import (CartanDatum, box, by_height, kostant_dim,
                     max_height_in_force, verma_character, weyl_character)
from .center import (annihilator_check, center_solve,
                     commutes_with_generators, partial_z_is_sigma_zeta,
                     zeta_separation_scan)
from .config import RunConfig
from .coordring import CoordRing
from .diffops import (DWindow, extremal_transport_check, lemma_rl_check,
                      relations_check, z_w_check)
from .enveloping import UAlgebra
from .errors import QflagError
from .memo import Memo
from .rmatrix import DrinfeldPairing, hexagon_check, r_operator
from .thetarep import theta_build, theta_faithfulness_probe
from .weightmod import (WeightModule, _exp_matrix, braid_on_module,
                        braid_word, check_module_relations,
                        module_map_commutes, restricted_dual, simple, tensor,
                        transpose_braid, verma)


# Process-wide on purpose: suites run against the same datum share one
# algebra, ring and pairing, and so their memos (normal forms, bases,
# pairing tables, the center solve that `annihilator` and `center` both
# use).  Results are deterministic either way.
_CONTEXTS = Memo()


def _ctx(config: RunConfig):
    # keyed on the height cap in force: the datum reads it when it is built
    return _CONTEXTS.get((config.type, config.cartan_matrix,
                          max_height_in_force()), lambda: _new_ctx(config))


def _new_ctx(config: RunConfig):
    datum = config.datum()
    alg = UAlgebra(datum)
    return (datum, alg, CoordRing(alg), DrinfeldPairing(alg))


def _report(suite: str, config: RunConfig, results: List[dict]) -> dict:
    results = sorted(results, key=lambda r: str(r.get("instance", "")))
    return {
        "schema": 1,
        "suite": suite,
        "config": config.describe(),
        "pass": all(r.get("pass", False) for r in results),
        "results": results,
    }


# ---------------------------------------------------------------------------


def suite_weyl_character(config: RunConfig) -> dict:
    datum, alg, _ring, _p = _ctx(config)
    results = []
    for lam in _dominant_weights(datum, config.max):
        ch = weyl_character(datum, lam)
        mod = simple(alg, lam)
        ok = mod.character() == ch
        results.append({"instance": f"lam={datum.weight_str(lam)}",
                        "pass": ok, "dim": mod.dim})
    return _report("weyl-character", config, results)


def _dominant_weights(datum: CartanDatum, bound: int):
    if datum.rank == 1:
        return box((bound,))
    ht = min(bound, 3)
    return sorted((w for w in box((ht,) * datum.rank, height=ht)
                   if _constructible(datum, w)), key=by_height)


def _constructible(datum: CartanDatum, lam) -> bool:
    """Whether the full simple module fits under the height cap (suites
    pick feasible instances; the cap itself stays a hard error)."""
    return sum(datum.lowest_drop(lam)) <= datum.max_height


def _fitting_fundamental(datum: CartanDatum):
    """The first fundamental weight whose simple module fits under the
    height cap (the first one when none does, whose module then raises
    DegreeCapError)."""
    fund = [datum.fundamental(i) for i in range(datum.rank)]
    return next((w for w in fund if _constructible(datum, w)), fund[0])


def _skipped(instances) -> List[dict]:
    return [{"instance": name, "pass": True,
             "note": "skipped: above height cap"} for name in instances]


def suite_pbw(config: RunConfig) -> dict:
    datum, alg, _ring, _p = _ctx(config)
    max_ht = {"A1": 6, "A2": 6, "B2": 5, "G2": 4}.get(config.type, 4)
    results = []
    for gamma in sorted(box((max_ht,) * datum.rank, height=max_ht),
                        key=by_height):
        dim = alg.basis(gamma).dim
        expected = kostant_dim(datum, gamma)
        results.append({
            "instance": f"beta={datum.root_str(gamma)}",
            "pass": dim == expected,
            "dim": dim, "partition_count": expected})
    return _report("pbw", config, results)


def suite_presentation(config: RunConfig) -> dict:
    datum, alg, _ring, _p = _ctx(config)
    depth = config.depth or ((4,) if datum.rank == 1 else (2,) * datum.rank)
    results = []
    mods: List[WeightModule] = []
    for lam in _dominant_weights(datum, 2):
        mods.append(verma(alg, lam, depth))
        mods.append(verma(alg, lam, depth, side="right"))
        mods.append(simple(alg, lam))
        mods.append(restricted_dual(simple(alg, lam)))
    if datum.rank == 1:
        mods.append(simple(alg, (config.max,)))
    for mod in mods:
        fails = check_module_relations(mod)
        results.append({"instance": mod.name, "pass": not fails,
                        "counterexample": fails[:1] if fails else None})
    return _report("presentation", config, results)


def suite_rmatrix(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    results = []
    max_ht = 4
    for beta in sorted(box((max_ht,) * datum.rank, height=max_ht),
                        key=by_height):
        if not any(beta):
            continue
        mat = pairing.table(beta)
        ok = True
        if mat:
            try:
                linalg.inverse(mat)
            except ArithmeticError:
                ok = False
        results.append({"instance": f"nondegenerate {datum.root_str(beta)}",
                        "pass": ok})
    lam1 = _fitting_fundamental(datum)
    lam2 = datum.fundamental(datum.rank - 1)
    v1 = simple(alg, lam1)
    v2 = simple(alg, lam2)
    # rank 1 keeps its repeated pair, so A1 reports (and their pinned
    # digests) stay as they are
    pairs = [(v1, v1)] if lam1 == lam2 and datum.rank > 1 \
        else [(v1, v1), (v1, v2)]
    for a, b in pairs:
        r = r_operator(pairing, a, b, "R")
        rinv = r_operator(pairing, a, b, "R-inverse")
        ident = linalg.identity(a.dim * b.dim, datum.l0)
        results.append({
            "instance": f"R Rinv = id on {a.name}x{b.name}",
            "pass": linalg.mat_eq(linalg.mat_mul(r.matrix, rinv.matrix),
                                  ident)})
        rc = r_operator(pairing, a, b, "R-check")
        results.append({
            "instance": f"Rcheck intertwines on {a.name}x{b.name}",
            "pass": module_map_commutes(rc.source, rc.target, rc.matrix)})
    if datum.rank == 1:
        hx = hexagon_check(pairing, v1, v1, v1)
    else:
        hx = hexagon_check(pairing, v1, v1, v2)
    hx["instance"] = "hexagon " + hx.pop("instance")
    results.append(hx)
    return _report("rmatrix", config, results)


def suite_braid(config: RunConfig) -> dict:
    datum, alg, _ring, pairing = _ctx(config)
    results = []
    # the two alternating reduced expressions of the longest element
    if datum.rank >= 2:
        m = len(datum.positive_roots())
        word_a = tuple((0, 1)[k % 2] for k in range(m))
        word_b = tuple((1, 0)[k % 2] for k in range(m))
    # reduced-word independence on the algebra
    if datum.rank >= 2:
        gens = [alg.e(i) for i in range(datum.rank)] + \
               [alg.f(i) for i in range(datum.rank)] + \
               [alg.k(datum.fundamental(i)) for i in range(datum.rank)]
        for idx, g in enumerate(gens):
            lhs = g
            for i in reversed(word_a):
                lhs = alg.braid_on_element(i, lhs)
            rhs = g
            for i in reversed(word_b):
                rhs = alg.braid_on_element(i, rhs)
            results.append({"instance": f"braid relation on U gen {idx}",
                            "pass": lhs == rhs})
    for lam in _dominant_weights(datum, 2):
        if not any(lam):
            continue
        mod = simple(alg, lam)
        if datum.rank >= 2:
            m1 = _braid_along(mod, word_a)
            m2 = _braid_along(mod, word_b)
            results.append({"instance": f"braid relation on {mod.name}",
                            "pass": linalg.mat_eq(m1, m2)})
        # T_w maps weight spaces as the Weyl action
        w0 = datum.longest_word()
        tw = braid_word(mod, w0)
        ok = True
        for col in range(mod.dim):
            src = mod.index_weights[col]
            tgt = datum.weyl_act(w0, src)
            for row in range(mod.dim):
                if not tw[row][col].is_zero() and \
                        mod.index_weights[row] != tgt:
                    ok = False
        results.append({"instance": f"T_w0 weight transport {mod.name}",
                        "pass": ok})
    # tensor factorization of T_i on a product of two modules
    lam = _fitting_fundamental(datum)
    v = simple(alg, lam)
    vv = tensor(v, v)
    i = 0
    t_vv = braid_on_module(vv, i)
    t_v = braid_on_module(v, i)
    tt = linalg.kron(t_v, t_v)
    di = datum.d(i)
    qi = datum.q_power(di)
    spread = (qi - qi.inverse())
    fe = linalg.kron(v.act(alg.f(i)), v.act(alg.e(i)))
    exp1 = _exp_matrix(linalg.mat_scale(fe, spread), di, datum.l0)
    rhs = linalg.mat_mul(tt, exp1)
    results.append({"instance": "tensor factorization (TxT) exp(f(x)e)",
                    "pass": linalg.mat_eq(t_vv, rhs)})
    eK = linalg.mat_mul(v.act(alg.e(i)),
                        v.k_matrix(tuple(-x for x in datum.alpha(i))))
    fK = linalg.mat_mul(v.act(alg.f(i)), v.k_matrix(datum.alpha(i)))
    other = linalg.kron(eK, fK)
    exp2 = _exp_matrix(linalg.mat_scale(other, (qi ** -2) * spread), di,
                       datum.l0)
    lhs2 = linalg.mat_mul(exp2, tt)
    results.append({"instance": "tensor factorization exp(ek(x)fk) (TxT)",
                    "pass": linalg.mat_eq(t_vv, lhs2)})
    # transpose braid round trip on a right module
    vr = restricted_dual(v)
    t = transpose_braid(vr, (0,))
    tinv = transpose_braid(vr, (0,), inverse=True)
    results.append({"instance": "tT tT^-1 = id",
                    "pass": linalg.mat_eq(linalg.mat_mul(t, tinv),
                                          linalg.identity(vr.dim, datum.l0))})
    # highest-line tensor compatibility of T_w^{-1}
    hw = simple(alg, lam)
    big = tensor(hw, v)
    w0 = datum.longest_word()
    twinv_big = braid_word(big, w0, inverse=True)
    twinv_hw = braid_word(hw, w0, inverse=True)
    twinv_v = braid_word(v, w0, inverse=True)
    ell = hw.basis_vector(hw.distinguished["highest"])
    ok = True
    for b in range(v.dim):
        vec = [datum.zero() for _ in range(big.dim)]
        for a2 in range(hw.dim):
            vec[a2 * v.dim + b] = ell[a2]
        lhs = linalg.mat_vec(twinv_big, vec)
        la = linalg.mat_vec(twinv_hw, ell)
        lb = linalg.mat_vec(twinv_v, v.basis_vector(b))
        rhs = [datum.zero() for _ in range(big.dim)]
        for a2 in range(hw.dim):
            for b2 in range(v.dim):
                rhs[a2 * v.dim + b2] = la[a2] * lb[b2]
        if lhs != rhs:
            ok = False
    results.append({"instance": "T_w^-1 splits on highest line (x) module",
                    "pass": ok})
    return _report("braid", config, results)


def _braid_along(mod, word) -> linalg.Matrix:
    """Compose single-letter braid operators along a literal word (no
    canonicalization, so distinct reduced expressions stay distinct)."""
    return linalg.ordered_product((braid_on_module(mod, i) for i in word),
                                  mod.dim, mod.datum.l0)


def suite_coord(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    rng = random.Random(config.seed)
    results = []
    cutoff = config.cutoff or ((3,) if datum.rank == 1 else (1,) * datum.rank)
    grades = [g for g in sorted(box(cutoff), key=by_height) if any(g)]
    # associativity on basis triples within the window
    ok = True
    cex = None
    for g1 in grades:
        for g2 in grades:
            for g3 in grades:
                tot = tuple(a + b + c for a, b, c in zip(g1, g2, g3))
                if not all(a <= b for a, b in zip(tot, cutoff)):
                    continue
                for x in ring.grade_basis(g1):
                    for y in ring.grade_basis(g2):
                        for z in ring.grade_basis(g3):
                            lhs = ring.mult(ring.mult(x, y), z)
                            rhs = ring.mult(x, ring.mult(y, z))
                            if lhs.vec != rhs.vec:
                                ok = False
                                cex = {"x": x.describe(), "y": y.describe(),
                                       "z": z.describe()}
    results.append({"instance": "associativity", "pass": ok,
                    "counterexample": cex})
    # domain spot check: products of nonzero homogeneous elements nonzero
    ok = True
    for g1 in grades:
        for g2 in grades:
            tot = tuple(a + b for a, b in zip(g1, g2))
            if not all(a <= b for a, b in zip(tot, cutoff)):
                continue
            for x in ring.grade_basis(g1):
                for y in ring.grade_basis(g2):
                    if ring.mult(x, y).is_zero():
                        ok = False
    results.append({"instance": "domain spot check", "pass": ok})
    # grading surjectivity: A(g1) (x) A(g2) -> A(g1+g2) full rank
    for g1 in grades[:2]:
        for g2 in grades[:2]:
            tot = tuple(a + b for a, b in zip(g1, g2))
            cols = []
            tgt = ring.module(tot)
            for x in ring.grade_basis(g1):
                for y in ring.grade_basis(g2):
                    cols.append(ring.embed_full(tgt, ring.mult(x, y)))
            rank = linalg.rank(cols)
            results.append({
                "instance": f"grading surjectivity {datum.weight_str(g1)}*"
                            f"{datum.weight_str(g2)}",
                "pass": rank == tgt.dim, "rank": rank, "dim": tgt.dim})
    # multiplicativity of the Schubert evaluation on random pairs
    words = datum.all_weyl_words()
    ok = True
    for _trial in range(20):
        w = words[rng.randrange(len(words))]
        g1 = grades[rng.randrange(len(grades))]
        g2 = grades[rng.randrange(len(grades))]
        if not all(a + b <= c for a, b, c in zip(g1, g2, cutoff)):
            continue
        b1 = ring.grade_basis(g1)
        b2 = ring.grade_basis(g2)
        x = b1[rng.randrange(len(b1))]
        y = b2[rng.randrange(len(b2))]
        ex = ring.schubert(w, x)["epsilon"]
        ey = ring.schubert(w, y)["epsilon"]
        exy = ring.schubert(w, ring.mult(x, y))["epsilon"]
        if exy != ex * ey:
            ok = False
    results.append({"instance": "schubert evaluation multiplicative",
                    "pass": ok, "trials": 20, "seed": config.seed})
    # covering rank: sum_w A(lam) c^w_mu = A(lam+mu)
    mu = datum.fundamental(0)
    lam_opts = [w for w in sorted(box(cutoff), key=by_height)
                if any(w) and all(a + b <= c for a, b, c
                                  in zip(w, mu, cutoff))]
    found = None
    for lam in lam_opts:
        tot = datum.weight_add(lam, mu)
        tgt = ring.module(tot)
        cols = []
        for w in words:
            cw = ring.extremal(w, mu)
            for x in ring.grade_basis(lam):
                cols.append(ring.embed_full(tgt, ring.mult(x, cw)))
        rank = linalg.rank(cols)
        if rank == tgt.dim:
            found = lam
            results.append({
                "instance": f"covering sum_w A(lam)c^w_mu lam="
                            f"{datum.weight_str(lam)}",
                "pass": True, "rank": rank, "dim": tgt.dim})
            break
        results.append({
            "instance": f"covering sum_w A(lam)c^w_mu lam="
                        f"{datum.weight_str(lam)}",
            "pass": False, "rank": rank, "dim": tgt.dim,
            "note": "threshold not yet reached"})
    results.append({"instance": "covering threshold found",
                    "pass": found is not None,
                    "threshold": datum.weight_str(found) if found else None})
    return _report("coord", config, results)


def suite_ore(config: RunConfig) -> dict:
    datum, alg, ring, _p = _ctx(config)
    results = []
    lam = datum.fundamental(0)
    for w in datum.all_weyl_words():
        for phi in ring.grade_basis(lam):
            for side in ("left", "right"):
                try:
                    t, psi = ring.ore_witness(phi, w, lam, side=side)
                    if side == "left":
                        okv = ring.mult(t, phi).vec == ring.mult(
                            psi, ring.extremal(w, lam)).vec
                    else:
                        okv = ring.mult(phi, t).vec == ring.mult(
                            ring.extremal(w, lam), psi).vec
                    results.append({
                        "instance": f"{side} w={list(w)} "
                                    f"wt={datum.weight_str(phi.weight)}",
                        "pass": okv,
                        "witness_grade": datum.weight_str(t.grade)})
                except QflagError as exc:
                    results.append({
                        "instance": f"{side} w={list(w)} "
                                    f"wt={datum.weight_str(phi.weight)}",
                        "pass": False, "error": str(exc)})
    return _report("ore", config, results)


def suite_localization(config: RunConfig) -> dict:
    datum, alg, ring, _p = _ctx(config)
    results = []
    depth = config.depth or ((3,) if datum.rank == 1 else (1,) * datum.rank)
    if datum.rank == 1:
        lams = [(0,), (1,), (-1,), (2,)]
    else:
        lams = [datum.fundamental(0),
                tuple(-x for x in datum.fundamental(0))]
    for lam in lams:
        ch = ring.localized_character((), lam, depth)
        expected = {g: verma_character(datum, lam, depth).coeff(
            datum.weight_sub_root(lam, g)) for g in ch}
        results.append({
            "instance": f"ch localized lam={datum.weight_str(lam)}",
            "pass": ch == expected,
            "dims": {datum.root_str(g): d for g, d in sorted(ch.items())}})
    rep = ring.theta_check(datum.fundamental(0),
                           (2,) if datum.rank == 1 else (1,) * datum.rank)
    rep["instance"] = "evaluation map vs plus-part functionals"
    results.append(rep)
    return _report("localization", config, results)


def suite_relations(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    cutoff = config.cutoff or ((2,) if datum.rank == 1 else
                               (1,) + (0,) * (datum.rank - 1))
    window = DWindow(ring, pairing, cutoff)
    rep = relations_check(window, corrupt=config.corrupt)
    return _report("relations", config, rep["results"])


def suite_lemma_rl(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    cutoff = config.cutoff or ((2,) if datum.rank == 1 else
                               (1,) * datum.rank)
    window = DWindow(ring, pairing, cutoff)
    results = []
    for psi in ring.grade_basis(datum.fundamental(0)):
        rep = lemma_rl_check(window, psi)
        results.extend(rep["results"])
    return _report("lemma-rl", config, results)


def suite_zw(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    cutoff = config.cutoff or ((2,) if datum.rank == 1 else
                               (1,) * datum.rank)
    window = DWindow(ring, pairing, cutoff)
    results = []
    for i in range(datum.rank):
        rep = z_w_check(window, i)
        results.extend(rep["results"])
        tr = extremal_transport_check(window, (), i, datum.fundamental(i))
        results.append(tr)
    return _report("zw", config, results)


def suite_theta(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    depth = 4 if datum.rank == 1 else 3
    probes = _theta_probes(datum)
    rep = theta_build(ring, pairing, depth, probes)
    results = rep["results"]
    span = [[("de", i)] for i in range(datum.rank)] + \
           [[("df", i)] for i in range(datum.rank)] + \
           [[("dk", datum.rho)], []]
    fp = theta_faithfulness_probe(ring, pairing, min(depth, 3), probes, span)
    fp["instance"] = "faithfulness rank certificate"
    results = results + [fp]
    return _report("theta", config, results)


def _theta_probes(datum: CartanDatum):
    probes = [datum.zero_weight, datum.fundamental(0),
              tuple(2 * x for x in datum.fundamental(0)), datum.rho]
    seen = []
    for p in probes:
        if p not in seen:
            seen.append(p)
    return seen


def suite_center(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    results = []
    centers = center_solve(alg, 2)
    nontrivial = [z for z in centers if not z.is_scalar()]
    if config.type in ("A1", "A2"):
        results.append({"instance": "nontrivial central element at height 2",
                        "pass": bool(nontrivial),
                        "solutions": len(centers)})
    else:
        # taller highest roots push the first invariant beyond this window;
        # an empty solution space is reported, not failed
        results.append({"instance": "solution count at height 2",
                        "pass": True,
                        "solutions": len(centers),
                        "nontrivial": len(nontrivial)})
    window = DWindow(ring, pairing,
                     (2,) if datum.rank == 1 else (1,) * datum.rank)
    for idx, zc in enumerate(centers):
        results.append({"instance": f"z{idx} commutes with generators",
                        "pass": commutes_with_generators(alg, zc.element)})
        results.append({"instance": f"z{idx} image shifted-Weyl invariant",
                        "pass": zc.hc_is_invariant(),
                        "hc": zc.describe()["hc_image"]})
        results.append({"instance": f"z{idx} partial_z = sigma.zeta(z)",
                        "pass": partial_z_is_sigma_zeta(window, zc)})
    lams = [(n,) for n in range(-3, 4)] if datum.rank == 1 else \
        box((1,) * datum.rank, lo=(-1,) * datum.rank)
    if nontrivial:
        scan = zeta_separation_scan(alg, centers, lams)
        results.append({"instance": "central character linkage scan",
                        "pass": scan["pass"]})
    else:
        results.append({"instance": "central character linkage scan",
                        "pass": True,
                        "note": "skipped: no separating family in window"})
    return _report("center", config, results)


def suite_annihilator(config: RunConfig) -> dict:
    datum, alg, _ring, _p = _ctx(config)
    results = []
    centers = [z for z in center_solve(alg, 2) if not z.is_scalar()]
    if not centers:
        return _report("annihilator", config, [{
            "instance": "no nontrivial central element in the window",
            "pass": config.type not in ("A1", "A2"),
            "note": "reported; raise the height to search further"}])
    zc = centers[0]
    depth = (4,) if datum.rank == 1 else (2,) * datum.rank
    for lam in ([(0,), (2,)] if datum.rank == 1 else
                [datum.zero_weight, datum.fundamental(0)]):
        rep = annihilator_check(alg, zc, lam, depth)
        results.append({"instance": f"z annihilates T({datum.weight_str(lam)})",
                        "pass": rep["annihilates"]})
    if datum.rank == 1:
        neg = annihilator_check(alg, zc, (2,), depth, character_at=(0,))
        results.append({
            "instance": "negative control zeta_0 on T(2w)",
            "pass": (not neg["annihilates"]) and (not neg["linked"])})
    return _report("annihilator", config, results)


def suite_key_lemma(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    results = []
    if datum.rank == 1:
        instances = [((0,), (2,)), ((1,), (1,)), ((-2,), (2,))]
    else:
        instances = [(datum.fundamental(0), datum.rho)]
    for lam, mu in instances:
        rep = key_lemma_characters(ring, pairing, lam, mu)
        rep["instance"] = f"lam={datum.weight_str(lam)} mu={datum.weight_str(mu)}"
        results.append(rep)
    return _report("key-lemma", config, results)


def suite_bimodule(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    results = []
    mu = _fitting_fundamental(datum)
    cutoff = config.cutoff or ((2,) if datum.rank == 1 else (1,) * datum.rank)
    e = EBimodule(ring, pairing, mu, cutoff)
    results.append({"instance": "unit identification", "pass": e.unit_check()})
    # a check runs when the modules of every grade it touches fit the cap
    if all(_constructible(datum, g) for g in e.grades):
        rep = e.bimodule_check()
        rep["instance"] = "bimodule axiom"
        results.append(rep)
    else:
        results += _skipped(("bimodule axiom",))
    base = next(g for g in e.grades if any(g))
    if _constructible(datum, datum.weight_add(base, base)):
        results.append({"instance": "flag stability",
                        "pass": e.flag_stability_check(base, base)})
        ok = True
        for k in range(len(e.layer_order)):
            for phi in ring.grade_basis(base):
                try:
                    e.commutation_scalar(k, phi, base)
                except QflagError:
                    ok = False
        results.append({"instance": "layer commutation scalars", "pass": ok})
    else:
        results += _skipped(("flag stability", "layer commutation scalars"))
    lam0 = e.lambda0()
    big = datum.weight_add(lam0, datum.rho)
    results.append({"instance": "layer character bookkeeping",
                    "pass": e.total_character_check(big)})
    return _report("bimodule", config, results)


SUITES: Dict[str, Callable[[RunConfig], dict]] = {
    "weyl-character": suite_weyl_character,
    "pbw": suite_pbw,
    "presentation": suite_presentation,
    "rmatrix": suite_rmatrix,
    "braid": suite_braid,
    "coord": suite_coord,
    "ore": suite_ore,
    "localization": suite_localization,
    "relations": suite_relations,
    "lemma-rl": suite_lemma_rl,
    "zw": suite_zw,
    "theta": suite_theta,
    "center": suite_center,
    "annihilator": suite_annihilator,
    "key-lemma": suite_key_lemma,
    "bimodule": suite_bimodule,
}


def run_suite(name: str, config: RunConfig) -> dict:
    if name == "all":
        reports = [SUITES[n](config) for n in sorted(SUITES)]
        return {
            "schema": 1,
            "suite": "all",
            "config": config.describe(),
            "pass": all(r["pass"] for r in reports),
            "results": reports,
        }
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](config)
