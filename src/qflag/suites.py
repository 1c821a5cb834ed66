"""Named verification suites: each runs a family of exact checks and
returns a JSON-ready report with one entry per instance, sorted by
instance key.  A failing instance carries a minimal counterexample; a
check that needs more than the height cap is reported skipped."""

from __future__ import annotations

import random
from itertools import product
from typing import Callable, Dict, List

from . import linalg
from .bimodule import EBimodule, key_lemma_characters
from .cartan import (CartanDatum, box, by_height, kostant_dim,
                     max_height_in_force, verma_character, weyl_character,
                     within)
from .center import (annihilator_check, center_solve,
                     commutes_with_generators, partial_z_is_sigma_zeta,
                     zeta_separation_scan)
from .config import RunConfig
from .coordring import CoordRing
from .diffops import (DWindow, extremal_transport_check, lemma_rl_check,
                      relations_check, z_w_check)
from .enveloping import UAlgebra
from .errors import DegreeCapError, ParseError, QflagError
from .memo import Memo
from .rmatrix import (DrinfeldPairing, _series_cells, hexagon_check,
                      r_operator)
from .thetarep import theta_build, theta_faithfulness_probe
from .weightmod import (WeightModule, braid_on_module, braid_word,
                        check_module_relations, module_map_commutes,
                        restricted_dual, simple, tensor, transpose_braid,
                        verma)


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


def _check(name: str, run: Callable[[], object]) -> List[dict]:
    """The entries of the check called ``name``: ``run()`` returns its
    verdict, the fields of its one entry, or a list of entries.  The
    height-cap rule: suites pick instances that fit the cap
    (`_dominant_weights`, `_fitting_fundamental`, `_window`), and a check
    that still needs more is one skipped entry.  Any other qflag error
    fails the check, with the error as its counterexample."""
    try:
        out = run()
    except DegreeCapError:
        return [{"instance": name, "pass": True,
                 "note": "skipped: above height cap"}]
    except QflagError as exc:
        return [{"instance": name, "pass": False, "error": str(exc)}]
    if isinstance(out, bool):
        out = {"pass": out}
    return [{**out, "instance": name}] if isinstance(out, dict) else out


def _window(datum: CartanDatum, config: RunConfig, size: int):
    """A suite's grade window: ``--cutoff`` when given, else ``(size,)``
    on rank 1, and on higher rank 1 on each fundamental weight whose
    simple module fits the height cap, 0 on the others."""
    if config.cutoff:
        return config.cutoff
    if datum.rank == 1:
        return (size,)
    return tuple(int(datum.constructible(datum.fundamental(i)))
                 for i in range(datum.rank))


def _compared(window, items: list) -> list:
    """The ``items`` a check compares; none, in a window with a zero
    coordinate (by default: above the cap), puts the check above the cap."""
    if not items and not all(window):
        raise DegreeCapError(f"nothing to compare in window {list(window)}")
    return items


def _held(window, grade):
    """``grade``, read by a check; ``_compared`` judges a window without it."""
    if not within(window, grade):
        _compared(window, [])
    return grade


def _sums_within(window, n: int) -> list:
    """The n-tuples of nonzero grades of ``window`` whose sum lies in it."""
    grades = [g for g in sorted(box(window), key=by_height) if any(g)]
    return [t for t in product(grades, repeat=n) if within(window, *t)]


def _dominant_weights(datum: CartanDatum, bound: int):
    if datum.rank == 1:
        return box((bound,))
    ht = min(bound, 3)
    return sorted((w for w in box((ht,) * datum.rank, height=ht)
                   if datum.constructible(w)), key=by_height)


def _fitting_fundamental(datum: CartanDatum):
    """The first fundamental weight whose simple module fits under the
    cap (else the first one, whose module then raises DegreeCapError)."""
    fund = [datum.fundamental(i) for i in range(datum.rank)]
    return next((w for w in fund if datum.constructible(w)), fund[0])


def _center_at_height_two(datum: CartanDatum) -> bool:
    """Whether a height-2 window holds a nontrivial central element: the
    first trace element lies at the height of the highest root."""
    return sum(datum.positive_roots()[-1]) <= 2


def _vname(datum: CartanDatum, lam) -> str:
    """The name of V(lam), before it is built."""
    return f"V({datum.weight_str(lam)})"


# ---------------------------------------------------------------------------


def suite_weyl_character(config: RunConfig) -> dict:
    datum, alg, _ring, _p = _ctx(config)
    results = []
    for lam in _dominant_weights(datum, config.max):
        results += _check(f"lam={datum.weight_str(lam)}", lambda: {
            "pass": simple(alg, lam).character() == weyl_character(datum, lam),
            "dim": simple(alg, lam).dim})
    return _report("weyl-character", config, results)


# pbw's height window by (rank, number of positive roots), so one datum
# gets one window whatever it is called: A1, A2, B2 = C2 and G2; 4 for
# any other datum
_PBW_HEIGHT = {(1, 1): 6, (2, 3): 6, (2, 4): 5, (2, 6): 4}


def suite_pbw(config: RunConfig) -> dict:
    datum, alg, _ring, _p = _ctx(config)
    max_ht = _PBW_HEIGHT.get((datum.rank, len(datum.positive_roots())), 4)

    def count(gamma) -> dict:
        dim, expected = alg.basis(gamma).dim, kostant_dim(datum, gamma)
        return {"pass": dim == expected, "dim": dim,
                "partition_count": expected}
    results = []
    for gamma in sorted(box((max_ht,) * datum.rank, height=max_ht),
                        key=by_height):
        results += _check(f"beta={datum.root_str(gamma)}",
                          lambda: count(gamma))
    return _report("pbw", config, results)


def suite_presentation(config: RunConfig) -> dict:
    datum, alg, _ring, _p = _ctx(config)
    depth = config.depth or ((4,) if datum.rank == 1 else (2,) * datum.rank)
    results = []
    for lam in _dominant_weights(datum, 2):
        s = datum.weight_str(lam)
        for name, build in [
                (f"T({s})|{depth}", lambda: verma(alg, lam, depth)),
                (f"Tr({s})|{depth}",
                 lambda: verma(alg, lam, depth, side="right")),
                (f"V({s})", lambda: simple(alg, lam)),
                (f"V({s})*", lambda: restricted_dual(simple(alg, lam)))]:
            results += _check(name, lambda: _relations_hold(build()))
    if datum.rank == 1:
        results += _check(_vname(datum, (config.max,)), lambda: (
            _relations_hold(simple(alg, (config.max,)))))
    return _report("presentation", config, results)


def _relations_hold(mod: WeightModule) -> dict:
    fails = check_module_relations(mod)
    return {"pass": not fails, "counterexample": fails[:1] if fails else None}


def suite_rmatrix(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    results = []
    for beta in sorted(box((4,) * datum.rank, height=4), key=by_height):
        if any(beta):
            results += _check(f"nondegenerate {datum.root_str(beta)}",
                              lambda: linalg.nonsingular(
                                  pairing.table(beta)))
    lam1 = _fitting_fundamental(datum)
    lam2 = datum.fundamental(datum.rank - 1)
    # rank 1 keeps its repeated pair, so A1 reports (and their pinned
    # digests) stay as they are
    pairs = [(lam1, lam1)] if lam1 == lam2 and datum.rank > 1 \
        else [(lam1, lam1), (lam1, lam2)]
    for la, lb in pairs:
        results += _check(f"R on {_vname(datum, la)}x{_vname(datum, lb)}",
                          lambda: _r_checks(pairing, simple(alg, la),
                                            simple(alg, lb)))
    hx = (lam1, lam1, lam1 if datum.rank == 1 else lam2)
    results += _check(
        "hexagon " + " (x) ".join(_vname(datum, lam) for lam in hx),
        lambda: hexagon_check(pairing, *(simple(alg, lam) for lam in hx)))
    return _report("rmatrix", config, results)


def _r_checks(pairing: DrinfeldPairing, a: WeightModule,
              b: WeightModule) -> List[dict]:
    r = r_operator(pairing, a, b, "R")
    rinv = r_operator(pairing, a, b, "R-inverse")
    rc = r_operator(pairing, a, b, "R-check")
    return [{"instance": f"R Rinv = id on {a.name}x{b.name}",
             "pass": linalg.is_identity(linalg.mat_mul(r.matrix,
                                                       rinv.matrix))},
            {"instance": f"Rcheck intertwines on {a.name}x{b.name}",
             "pass": module_map_commutes(rc.source, rc.target, rc.matrix)}]


def suite_braid(config: RunConfig) -> dict:
    datum, alg, _ring, pairing = _ctx(config)
    results = []
    # the two alternating reduced expressions of the longest element
    m = len(datum.positive_roots())
    words = [tuple((0, 1)[k % 2] for k in range(m)),
             tuple((1, 0)[k % 2] for k in range(m))]
    # reduced-word independence on the algebra
    if datum.rank >= 2:
        gens = [g(i) for g in (alg.e, alg.f) for i in range(datum.rank)] + \
               [alg.k(datum.fundamental(i)) for i in range(datum.rank)]
        for idx, g in enumerate(gens):
            results += _check(f"braid relation on U gen {idx}", lambda: (
                _braid_element(alg, g, words[0])
                == _braid_element(alg, g, words[1])))
    for lam in _dominant_weights(datum, 2):
        if any(lam):
            results += _check(f"braids on {_vname(datum, lam)}",
                              lambda: _braid_checks(simple(alg, lam), words))
    lam = _fitting_fundamental(datum)
    results += _check(f"T_i on {_vname(datum, lam)} and its products",
                      lambda: _braid_tensor_checks(simple(alg, lam)))
    return _report("braid", config, results)


def _braid_element(alg: UAlgebra, g, word):
    for i in reversed(word):
        g = alg.braid_on_element(i, g)
    return g


def _braid_along(mod, word) -> linalg.Matrix:
    """Compose single-letter braid operators along a literal word (no
    canonicalization, so distinct reduced expressions stay distinct)."""
    return linalg.ordered_product((braid_on_module(mod, i) for i in word),
                                  mod.dim, mod.datum.l0)


def _braid_checks(mod: WeightModule, words) -> List[dict]:
    """The braid relation on ``mod`` (rank >= 2); T_w0 moves weights by w0."""
    datum = mod.datum
    results = []
    if datum.rank >= 2:
        results.append({"instance": f"braid relation on {mod.name}",
                        "pass": linalg.mat_eq(_braid_along(mod, words[0]),
                                              _braid_along(mod, words[1]))})
    w0 = datum.longest_word()
    tw = braid_word(mod, w0)
    wts = mod.index_weights
    results.append({"instance": f"T_w0 weight transport {mod.name}",
                    "pass": all(tw[row][col].is_zero()
                                or wts[row] == datum.weyl_act(w0, wts[col])
                                for col in range(mod.dim)
                                for row in range(mod.dim))})
    return results


def _braid_tensor_checks(v: WeightModule) -> List[dict]:
    alg, datum, l0 = v.algebra, v.datum, v.datum.l0
    vv = tensor(v, v)
    # tensor factorization of T_i on a product of two modules
    i, di = 0, datum.d(0)
    qi = datum.q_power(di)
    spread = qi - qi.inverse()
    t_vv = braid_on_module(vv, i)
    tt = linalg.kron(braid_on_module(v, i), braid_on_module(v, i))
    e, f = v.act(alg.e(i)), v.act(alg.f(i))
    eK = linalg.mat_mul(e, v.k_matrix(tuple(-x for x in datum.alpha(i))))
    fK = linalg.mat_mul(f, v.k_matrix(datum.alpha(i)))
    # exp_{q_i}(c f (x) e) and exp_{q_i}(c' eK (x) fK): identity rows plus
    # the series' cells
    exp1, exp2 = (linalg.from_rows(
        [{r: datum.one(), **cells.get(r, {})} for r in range(vv.dim)],
        vv.dim, l0) for cells in (
            _series_cells(f, e, di, spread, l0),
            _series_cells(eK, fK, di, (qi ** -2) * spread, l0)))
    results = [{"instance": "tensor factorization (TxT) exp(f(x)e)",
                "pass": linalg.mat_eq(t_vv, linalg.mat_mul(tt, exp1))},
               {"instance": "tensor factorization exp(ek(x)fk) (TxT)",
                "pass": linalg.mat_eq(t_vv, linalg.mat_mul(exp2, tt))}]
    # transpose braid round trip on a right module
    vr = restricted_dual(v)
    t = transpose_braid(vr, (0,))
    tinv = transpose_braid(vr, (0,), inverse=True)
    results.append({"instance": "tT tT^-1 = id",
                    "pass": linalg.is_identity(linalg.mat_mul(t, tinv))})
    # highest-line tensor compatibility of T_w^{-1}: on (highest line) (x) V
    # it is T_w^{-1}(highest vector) (x) T_w^{-1}
    w0 = datum.longest_word()
    ell = [[x] for x in v.basis_vector(v.distinguished["highest"])]
    lhs = linalg.mat_mul(braid_word(vv, w0, inverse=True),
                         linalg.kron(ell, linalg.identity(v.dim, l0)))
    twinv_v = braid_word(v, w0, inverse=True)
    rhs = linalg.kron(linalg.mat_mul(twinv_v, ell), twinv_v)
    results.append({"instance": "T_w^-1 splits on highest line (x) module",
                    "pass": linalg.mat_eq(lhs, rhs)})
    return results


def suite_coord(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    rng = random.Random(config.seed)
    cutoff = _window(datum, config, 3)
    grades = [g for g in sorted(box(cutoff), key=by_height) if any(g)]
    pairs = _sums_within(cutoff, 2)
    results = _check("associativity", lambda: _associativity(
        ring, _compared(cutoff, _sums_within(cutoff, 3))))
    # domain spot check: products of nonzero homogeneous elements nonzero
    results += _check("domain spot check", lambda: all(
        not ring.mult(x, y).is_zero()
        for g1, g2 in _compared(cutoff, pairs)
        for x in ring.grade_basis(g1) for y in ring.grade_basis(g2)))
    # grading surjectivity: A(g1) (x) A(g2) -> A(g1+g2) full rank
    for g1, g2 in product(grades[:2], repeat=2):
        results += _check(f"grading surjectivity {datum.weight_str(g1)}*"
                          f"{datum.weight_str(g2)}",
                          lambda: _spans(ring, datum.weight_add(g1, g2), [
                              ring.mult(x, y) for x in ring.grade_basis(g1)
                              for y in ring.grade_basis(g2)]))
    # multiplicativity of the Schubert evaluation on random pairs
    words = datum.all_weyl_words()

    def schubert() -> dict:
        _compared(cutoff, pairs)
        ok = True
        for _trial in range(20):
            w, g1, g2 = (rng.choice(words), rng.choice(grades),
                         rng.choice(grades))
            if within(cutoff, g1, g2):
                x = rng.choice(ring.grade_basis(g1))
                y = rng.choice(ring.grade_basis(g2))
                ex, ey, exy = (ring.schubert(w, u)["epsilon"]
                               for u in (x, y, ring.mult(x, y)))
                ok = ok and exy == ex * ey
        return {"pass": ok, "trials": 20, "seed": config.seed}
    results += _check("schubert evaluation multiplicative", schubert)
    # covering rank: the first lam with sum_w A(lam) c^w_mu = A(lam+mu)
    mu = datum.fundamental(0)

    def covering():
        out, found = [], None
        lams = _compared(cutoff, [g for g in grades if within(cutoff, g, mu)])
        if not lams:
            return {"pass": True, "note": "skipped: nothing to compare in "
                                          f"window {list(cutoff)}"}
        for lam in lams:
            out.append({"instance": "covering sum_w A(lam)c^w_mu lam="
                                    + datum.weight_str(lam), **_spans(
                ring, datum.weight_add(lam, mu), [
                    ring.mult(x, ring.extremal(w, mu)) for w in words
                    for x in ring.grade_basis(lam)])})
            if out[-1]["pass"]:
                found = datum.weight_str(lam)
                break
            out[-1]["note"] = "threshold not yet reached"
        return out + [{"instance": "covering threshold found",
                       "pass": found is not None, "threshold": found}]
    results += _check("covering threshold found", covering)
    return _report("coord", config, results)


def _associativity(ring: CoordRing, triples) -> dict:
    bad = [(x, y, z) for g1, g2, g3 in triples
           for x in ring.grade_basis(g1) for y in ring.grade_basis(g2)
           for z in ring.grade_basis(g3)
           if ring.mult(ring.mult(x, y), z).vec
           != ring.mult(x, ring.mult(y, z)).vec]
    return {"pass": not bad, "counterexample": {
        k: u.describe() for k, u in zip("xyz", bad[-1])} if bad else None}


def _spans(ring: CoordRing, grade, products) -> dict:
    """Whether ``products`` span the coordinate ring at ``grade``."""
    tgt = ring.module(tuple(grade))
    rank = linalg.rank([ring.embed_full(tgt, p) for p in products])
    return {"pass": rank == tgt.dim, "rank": rank, "dim": tgt.dim}


def suite_ore(config: RunConfig) -> dict:
    datum, alg, ring, _p = _ctx(config)
    lam = datum.fundamental(0)

    def witnesses() -> List[dict]:
        return [entry for w in datum.all_weyl_words()
                for phi in ring.grade_basis(lam) for side in ("left", "right")
                for entry in _check(
                    f"{side} w={list(w)} wt={datum.weight_str(phi.weight)}",
                    lambda: _ore_witness(ring, phi, w, lam, side))]
    return _report("ore", config, _check(
        f"Ore witnesses on {_vname(datum, lam)}*", witnesses))


def _ore_witness(ring: CoordRing, phi, w, lam, side: str) -> dict:
    t, psi = ring.ore_witness(phi, w, lam, side=side)
    c = ring.extremal(w, lam)
    okv = ring.mult(t, phi).vec == ring.mult(psi, c).vec if side == "left" \
        else ring.mult(phi, t).vec == ring.mult(c, psi).vec
    return {"pass": okv, "witness_grade": ring.datum.weight_str(t.grade)}


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
        results += _check(f"ch localized lam={datum.weight_str(lam)}",
                          lambda: _localized_character(ring, lam, depth))
    results += _check("evaluation map vs plus-part functionals",
                      lambda: ring.theta_check(
                          datum.fundamental(0), (2,) if datum.rank == 1
                          else (1,) * datum.rank))
    return _report("localization", config, results)


def _localized_character(ring: CoordRing, lam, depth) -> dict:
    datum = ring.datum
    ch = ring.localized_character((), lam, depth)
    expected = {g: verma_character(datum, lam, depth).coeff(
        datum.weight_sub_root(lam, g)) for g in ch}
    return {"pass": ch == expected,
            "dims": {datum.root_str(g): d for g, d in sorted(ch.items())}}


def suite_relations(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    cutoff = config.cutoff or ((2,) if datum.rank == 1 else
                               _fitting_fundamental(datum))
    return _report("relations", config, _check(
        f"relations on window {datum.weight_str(cutoff)}",
        lambda: relations_check(DWindow(ring, pairing, cutoff),
                                corrupt=config.corrupt)["results"]))


def suite_lemma_rl(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    cutoff = _window(datum, config, 2)
    lam = _fitting_fundamental(datum)

    def expansions() -> List[dict]:
        psis = ring.grade_basis(_held(cutoff, lam))
        window = DWindow(ring, pairing, cutoff)
        return [entry for psi in psis
                for entry in lemma_rl_check(window, psi)["results"]]
    return _report("lemma-rl", config, _check(
        f"rl1 and rl2 on {_vname(datum, lam)}*", expansions))


def suite_zw(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    cutoff = _window(datum, config, 2)

    def twists() -> List[dict]:
        window = DWindow(ring, pairing, cutoff)
        results = []
        for i in range(datum.rank):
            lam = datum.fundamental(i)
            results += _check(f"Z_s{i + 1} relations",
                              lambda: z_w_check(window, i)["results"])
            results += _check(
                f"w=[] i={i} lam={datum.weight_str(lam)}",
                lambda: extremal_transport_check(window, (), i,
                                                 _held(cutoff, lam)))
        return results
    return _report("zw", config, _check(
        f"Z_w on window {datum.weight_str(cutoff)}", twists))


def suite_theta(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    depth = 4 if datum.rank == 1 else 3
    probes = list(dict.fromkeys([
        datum.zero_weight, datum.fundamental(0),
        tuple(2 * x for x in datum.fundamental(0)), datum.rho]))
    span = [[("de", i)] for i in range(datum.rank)] + \
           [[("df", i)] for i in range(datum.rank)] + \
           [[("dk", datum.rho)], []]
    results = _check("theta", lambda: theta_build(
        ring, pairing, depth, probes)["results"])
    results += _check("faithfulness rank certificate",
                      lambda: theta_faithfulness_probe(
                          ring, pairing, min(depth, 3), probes, span))
    return _report("theta", config, results)


def suite_center(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    cutoff = _window(datum, config, 2)

    def checks() -> List[dict]:
        centers = center_solve(alg, 2)
        nontrivial = [z for z in centers if not z.is_scalar()]
        if _center_at_height_two(datum):
            results = [{"instance": "nontrivial central element at height 2",
                        "pass": bool(nontrivial),
                        "solutions": len(centers)}]
        else:
            # taller highest roots push the first invariant beyond this
            # window; an empty solution space is reported, not failed
            results = [{"instance": "solution count at height 2",
                        "pass": True,
                        "solutions": len(centers),
                        "nontrivial": len(nontrivial)}]
        for idx, zc in enumerate(centers):
            results += _check(f"z{idx} commutes with generators",
                              lambda: commutes_with_generators(
                                  alg, zc.element))
            results += _check(f"z{idx} image shifted-Weyl invariant",
                              lambda: {"pass": zc.hc_is_invariant(),
                                       "hc": zc.describe()["hc_image"]})
            results += _check(f"z{idx} partial_z = sigma.zeta(z)",
                              lambda: partial_z_is_sigma_zeta(
                                  DWindow(ring, pairing, cutoff), zc))
        lams = [(n,) for n in range(-3, 4)] if datum.rank == 1 else \
            box((1,) * datum.rank, lo=(-1,) * datum.rank)
        if nontrivial:
            results += _check("central character linkage scan", lambda: (
                zeta_separation_scan(alg, centers, lams)["pass"]))
        else:
            results.append({"instance": "central character linkage scan",
                            "pass": True,
                            "note": "skipped: no separating family in window"})
        return results
    return _report("center", config, _check("center at height 2", checks))


def suite_annihilator(config: RunConfig) -> dict:
    datum, alg, _ring, _p = _ctx(config)
    depth = (4,) if datum.rank == 1 else (2,) * datum.rank

    def checks() -> List[dict]:
        centers = [z for z in center_solve(alg, 2) if not z.is_scalar()]
        if not centers:
            return [{"instance": "no nontrivial central element in the window",
                     "pass": not _center_at_height_two(datum),
                     "note": "reported; raise the height to search further"}]
        zc = centers[0]
        results = []
        for lam in ([(0,), (2,)] if datum.rank == 1 else
                    [datum.zero_weight, datum.fundamental(0)]):
            results += _check(f"z annihilates T({datum.weight_str(lam)})",
                              lambda: annihilator_check(
                                  alg, zc, lam, depth)["annihilates"])
        if datum.rank == 1:
            results += _check("negative control zeta_0 on T(2w)", lambda: (
                not any(map(annihilator_check(
                    alg, zc, (2,), depth, character_at=(0,)).get,
                    ("annihilates", "linked")))))
        return results
    return _report("annihilator", config,
                   _check("annihilator at height 2", checks))


def suite_key_lemma(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    results = []
    if datum.rank == 1:
        instances = [((0,), (2,)), ((1,), (1,)), ((-2,), (2,))]
    else:
        instances = [(datum.fundamental(0), datum.rho)]
    for lam, mu in instances:
        results += _check(
            f"lam={datum.weight_str(lam)} mu={datum.weight_str(mu)}",
            lambda: key_lemma_characters(ring, pairing, lam, mu))
    return _report("key-lemma", config, results)


def suite_bimodule(config: RunConfig) -> dict:
    datum, alg, ring, pairing = _ctx(config)
    mu = _fitting_fundamental(datum)
    cutoff = _window(datum, config, 2)

    def checks() -> List[dict]:
        e = EBimodule(ring, pairing, mu, cutoff)

        def axiom():
            _compared(cutoff, _sums_within(cutoff, 2))
            return e.bimodule_check()

        def base():
            return _compared(cutoff, [g for g in e.grades if any(g)])[0]

        def scalars():  # commutation_scalar raises where a scalar fails
            b = base()
            for k in range(len(e.layer_order)):
                for phi in ring.grade_basis(b):
                    e.commutation_scalar(k, phi, b)
            return True
        results = [{"instance": "unit identification",
                    "pass": e.unit_check()}]
        results += _check("bimodule axiom", axiom)
        results += _check("flag stability",
                          lambda: e.flag_stability_check(base(), base()))
        results += _check("layer commutation scalars", scalars)
        big = datum.weight_add(e.lambda0(), datum.rho)
        results.append({"instance": "layer character bookkeeping",
                        "pass": e.total_character_check(big)})
        return results
    return _report("bimodule", config,
                   _check(f"E^{datum.weight_str(mu)}", checks))


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
    if config.corrupt and name != "relations":
        raise ParseError(f"only relations reads --corrupt, not {name}")
    return SUITES[name](config)
