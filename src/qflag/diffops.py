"""q-differential operators on a graded truncation of the coordinate ring.

Operators are realized degreewise-exactly as block matrices on a window of
grades; equality of operators is equality of realizations wherever both
sides stay inside the window.  On top sit the generator relations, the
left/right multiplication exchange through canonical elements, braid
conjugation, the transpose representation on the plus part of the algebra,
and the center with its Harish-Chandra image.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .cartan import Weight, box, by_height
from .coordring import CoordElement, CoordRing
from .enveloping import UAlgebra, UElement
from .errors import QflagError
from .linalg import Matrix, Vector
from .memo import Memo
from .rmatrix import DrinfeldPairing
from .scalars import QScalar, exp_t_coefficient
from .weightmod import WeightModule, braid_on_module


class DWindow:
    """A finite grade window carrying exact operator realizations."""

    def __init__(self, ring: CoordRing, pairing: DrinfeldPairing,
                 cutoff: Weight):
        self.ring = ring
        self.pairing = pairing
        self.algebra = ring.algebra
        self.datum = ring.datum
        self.cutoff = tuple(cutoff)
        self.grades = sorted(box(self.cutoff), key=by_height)
        self.grade_set = set(self.grades)
        self.memo = Memo()
        for g in self.grades:
            ring.module(g)

    def module(self, g: Weight) -> WeightModule:
        return self.ring.module(tuple(g))

    # -- primitive operators ---------------------------------------------------

    def op_zero(self, grade: Weight) -> "DOperator":
        blocks = {}
        for g in self.grades:
            tgt = self.datum.weight_add(g, grade)
            if tgt in self.grade_set:
                blocks[g] = linalg.zeros(self.module(tgt).dim,
                                         self.module(g).dim, self.datum.l0)
            else:
                blocks[g] = None
        return DOperator(self, tuple(grade), blocks)

    def op_mult(self, phi: CoordElement, side: str) -> "DOperator":
        """l_phi ('left', x -> phi*x) or r_phi ('right', x -> x*phi), the
        convention of ``CoordRing.full_mult_matrix``.  Memoized on the
        window; callers must not mutate it."""
        key = ("mult", phi.grade, phi.gamma, tuple(phi.vec), side)
        return self.memo.get(key, lambda: DOperator(self, phi.grade, {
            g: self.ring.full_mult_matrix(g, phi, side)
            if self.datum.weight_add(g, phi.grade) in self.grade_set else None
            for g in self.grades}))

    def op_partial(self, u: UElement) -> "DOperator":
        """u on every grade, the unit for u = 1; memoized, do not mutate."""
        if u == self.algebra.one():
            return self.op_sigma(self.datum.zero_weight)
        return self.memo.get(
            ("partial", frozenset(u.terms.items())),
            lambda: DOperator(self, self.datum.zero_weight,
                              {g: self.module(g).act(u) for g in self.grades}))

    def op_sigma(self, lam: Weight) -> "DOperator":
        """sigma_lam: q^{(lam, g)} on grade g; sigma_0 is the unit."""
        l0 = self.datum.l0
        blocks = {g: linalg.diagonal(
            [self.datum.q_pair(lam, g)] * self.module(g).dim, l0)
            for g in self.grades}
        return DOperator(self, self.datum.zero_weight, blocks,
                         unit=not any(lam))

    def op_braid(self, i: int, inverse: bool = False) -> "DOperator":
        """T_i^{+-1} on every grade of the window (memoized on it)."""
        return self.memo.get(("braid", i, inverse), lambda: DOperator(
            self, self.datum.zero_weight,
            {g: braid_on_module(self.module(g), i, inverse=inverse)
             for g in self.grades}))


class DOperator:
    """Degreewise realization of a graded operator on the window."""

    __slots__ = ("window", "grade", "blocks", "unit")

    def __init__(self, window: DWindow, grade: Weight,
                 blocks: Dict[Weight, Optional[Matrix]], unit: bool = False):
        self.window = window
        self.grade = tuple(grade)
        self.blocks = blocks
        self.unit = unit   # the identity operator: composing with it is free

    def __add__(self, other: "DOperator") -> "DOperator":
        if self.grade != other.grade:
            raise ValueError("grade mismatch in operator sum")
        blocks = {}
        for g in self.window.grades:
            a, b = self.blocks.get(g), other.blocks.get(g)
            blocks[g] = None if a is None or b is None else linalg.mat_add(a, b)
        return DOperator(self.window, self.grade, blocks)

    def scale(self, c: QScalar) -> "DOperator":
        return DOperator(self.window, self.grade, {
            g: None if m is None else linalg.mat_scale(m, c)
            for g, m in self.blocks.items()})

    def compose(self, other: "DOperator") -> "DOperator":
        """self o other (apply other first).  A block is defined only where
        its target grade is in the window, so the unit composes to the
        other operator."""
        if other.unit:
            return self
        if self.unit:
            return other
        datum = self.window.datum
        grade = datum.weight_add(self.grade, other.grade)
        blocks: Dict[Weight, Optional[Matrix]] = {}
        for g in self.window.grades:
            m2 = other.blocks.get(g)
            mid = datum.weight_add(g, other.grade)
            m1 = self.blocks.get(mid) if mid in self.window.grade_set else None
            blocks[g] = None if m1 is None or m2 is None \
                else linalg.mat_mul(m1, m2)
        return DOperator(self.window, grade, blocks)

    def equals(self, other: "DOperator") -> Tuple[bool, Optional[dict]]:
        """Compare on every grade where both realizations are defined."""
        if self.grade != other.grade:
            return False, {"reason": "grade mismatch"}
        compared = 0
        for g in self.window.grades:
            a, b = self.blocks.get(g), other.blocks.get(g)
            if a is None or b is None:
                continue
            compared += 1
            mm = linalg.first_mismatch(a, b)
            if mm is not None:
                i, j, x, y = mm
                mod = self.window.module(g)
                tgt = self.window.datum.weight_add(g, self.grade)
                tmod = self.window.module(tgt)
                return False, {
                    "grade": self.window.datum.weight_str(g),
                    "input": mod.labels[j],
                    "output": tmod.labels[i],
                    "lhs": x.to_str(), "rhs": y.to_str()}
        if compared == 0:
            return False, {"reason": "no common window grades"}
        return True, None


# ---------------------------------------------------------------------------
# generator relations
# ---------------------------------------------------------------------------

def sweedler_pairs(algebra: UAlgebra, u: UElement) -> List[Tuple[UElement, UElement]]:
    return [(algebra.mono_element(m0).scale(c), algebra.mono_element(m1))
            for (m0, m1), c in algebra.coproduct(u).items()]


def relations_check(window: DWindow, corrupt: bool = False) -> dict:
    """All six generator relations plus the antipode-twisted exchange, as
    exact matrix identities on the window."""
    ring = window.ring
    alg = window.algebra
    datum = window.datum
    results = []
    small = [g for g in window.grades if any(g)]
    probes = [datum.fundamental(i) for i in range(datum.rank)] + [datum.rho]
    corrupt_twist = datum.q_power(Fraction(1, datum.l0)) if corrupt \
        else datum.one()

    def sigma(lam):
        op = window.op_sigma(lam)
        if corrupt:
            return op.scale(corrupt_twist)
        return op

    # comm1: left multiplications compose
    for g1 in small:
        for g2 in small:
            if datum.weight_add(g1, g2) not in window.grade_set:
                continue
            for phi in ring.grade_basis(g1)[:2]:
                for psi in ring.grade_basis(g2)[:2]:
                    results.append(_entry(
                        f"comm1 l_phi l_psi {datum.weight_str(g1)}"
                        f"{datum.weight_str(g2)}",
                        window.op_mult(phi, "left").compose(
                            window.op_mult(psi, "left")),
                        window.op_mult(ring.mult(phi, psi), "left")))
    # comm2: sigma additive
    for lam in probes:
        for mu in probes:
            results.append(_entry(f"comm2 sigma {lam}+{mu}",
                                  sigma(lam).compose(sigma(mu)),
                                  sigma(datum.weight_add(lam, mu))))
    # comm3: partial multiplicative
    gens = [alg.e(i) for i in range(datum.rank)] + \
           [alg.f(i) for i in range(datum.rank)] + \
           [alg.k(datum.fundamental(0))]
    for a in gens[:3]:
        for b in gens[:3]:
            results.append(_entry(
                "comm3 partial(uv)",
                window.op_partial(a).compose(window.op_partial(b)),
                window.op_partial(a * b)))
    # comm4: sigma vs left multiplication
    for lam in probes:
        for g in small:
            l_phi = window.op_mult(ring.grade_basis(g)[0], "left")
            results.append(_entry(
                f"comm4 sigma{lam} l_phi{datum.weight_str(g)}",
                sigma(lam).compose(l_phi),
                l_phi.compose(sigma(lam)).scale(datum.q_pair(lam, g))))
    # comm5: sigma central among partials
    for u in gens:
        results.append(_entry(
            "comm5 sigma partial",
            sigma(datum.rho).compose(window.op_partial(u)),
            window.op_partial(u).compose(sigma(datum.rho))))
    # comm6 and the antipode-twisted exchange, for generators of U
    for u in [alg.e(i) for i in range(datum.rank)] + \
             [alg.f(i) for i in range(datum.rank)] + \
             [alg.k(datum.rho)]:
        for g in small:
            for phi in ring.grade_basis(g):
                l_phi = window.op_mult(phi, "left")
                rhs = window.op_zero(g)
                for u0, u1 in sweedler_pairs(alg, u):
                    act = ring.u_action(u0, phi)
                    if act.is_zero():
                        continue
                    rhs = rhs + window.op_mult(act, "left").compose(
                        window.op_partial(u1))
                results.append(_entry(
                    f"comm6 {u.to_str()[:12]} {datum.weight_str(g)}",
                    window.op_partial(u).compose(l_phi), rhs))
                rhs2 = window.op_zero(g)
                for u0, u1 in sweedler_pairs(alg, u):
                    tw = ring.u_action(alg.antipode(u0, inverse=True), phi)
                    if tw.is_zero():
                        continue
                    rhs2 = rhs2 + window.op_partial(u1).compose(
                        window.op_mult(tw, "left"))
                results.append(_entry(
                    f"exchange {u.to_str()[:12]} {datum.weight_str(g)}",
                    l_phi.compose(window.op_partial(u)), rhs2))
    passed = all(r["pass"] for r in results)
    return {"suite": "relations", "pass": passed, "results": results}


# ---------------------------------------------------------------------------
# right multiplication through the canonical elements
# ---------------------------------------------------------------------------

def lemma_rl_check(window: DWindow, psi: CoordElement) -> dict:
    """r_psi as a finite sum of l-partial-sigma compositions, and the
    mirrored expansion of l_psi, both exactly on the window."""
    betas = sorted(box(psi.gamma), key=by_height)
    rl1 = _rl_entry(window, psi, "right", betas)
    # the mirrored sum runs over the drops of V(mu) less psi's own drop
    betas = sorted({tuple(a - b for a, b in zip(target, psi.gamma))
                    for target in window.ring.factory(psi.grade).drops
                    if all(a >= b for a, b in zip(target, psi.gamma))},
                   key=by_height)
    rl2 = _rl_entry(window, psi, "left", betas)
    return {"suite": "lemma-rl", "pass": rl1["pass"] and rl2["pass"],
            "results": [rl1, rl2]}


def _rl_entry(window: DWindow, psi: CoordElement, side: str,
              betas: Sequence[Tuple[int, ...]]) -> dict:
    """Multiplication by psi on ``side`` against its expansion through the
    canonical-element components x_p (x) y_p of degree beta in ``betas``:
    r_psi = sum_p l_{x_p psi} partial_{y_p k_eta} sigma_{-mu} ('right', rl1)
    and, mirrored, l_psi = sum_p r_{y_p psi} partial_{x_p k_eta} sigma_{-mu}
    ('left', rl2), with mu the grade and eta the weight of psi."""
    ring = window.ring
    other = "left" if side == "right" else "right"
    k_eta = window.algebra.k(psi.weight)
    rhs = window.op_zero(psi.grade)
    for beta in betas:
        for x_p, y_p in window.pairing.inverse_components(beta):
            if side == "left":
                x_p, y_p = y_p, x_p
            act = ring.u_action(x_p, psi)
            if act.is_zero():
                continue
            rhs = rhs + window.op_mult(act, other).compose(
                window.op_partial(y_p * k_eta))
    rhs = rhs.compose(window.op_sigma(tuple(-x for x in psi.grade)))
    name = "rl1" if side == "right" else "rl2"
    return _entry(f"{name} psi{psi.describe()['weight']}",
                  window.op_mult(psi, side), rhs)


def _entry(name: str, lhs: DOperator, rhs: DOperator) -> dict:
    """One check result: whether lhs equals rhs on the window, with the
    first mismatch as its counterexample."""
    ok, cex = lhs.equals(rhs)
    entry = {"instance": name, "pass": ok}
    if cex:
        entry["counterexample"] = cex
    return entry


# ---------------------------------------------------------------------------
# braid conjugation
# ---------------------------------------------------------------------------

def z_conjugate(window: DWindow, i: int, d: DOperator) -> DOperator:
    """Z_{s_i}(d) = T_i^{-1} o d o T_i on the window."""
    return window.op_braid(i, True).compose(d.compose(window.op_braid(i)))


def _exp_tensor_components(alg: UAlgebra, i: int,
                           bound: int) -> List[Tuple[UElement, UElement]]:
    """Components b_p (x) a_p of exp_{q_i^{-1}}(-(q_i - q_i^{-1}) f_i (x) e_i)
    up to nilpotency order ``bound``."""
    datum = alg.datum
    out = []
    scale = -(alg.qi(i) - alg.qi(i, -1))
    for n in range(bound + 1):
        c = exp_t_coefficient(n, -datum.d(i), datum.l0) * (scale ** n)
        out.append((alg.f_word((i,) * n).scale(c), alg.e_word((i,) * n)))
    return out


def z_w_check(window: DWindow, i: int) -> dict:
    """Z_{s_i} fixes sigma, transports partials along the braid
    automorphism, and expands left multiplications through the
    two-factor exponential; extremal elements move between Ore sets."""
    ring = window.ring
    alg = window.algebra
    datum = window.datum
    sigma_rho = window.op_sigma(datum.rho)
    results = [_entry("Z(sigma_rho) = sigma_rho",
                      z_conjugate(window, i, sigma_rho), sigma_rho)]
    for u in [alg.e(j) for j in range(datum.rank)] + \
             [alg.f(j) for j in range(datum.rank)] + [alg.k(datum.rho)]:
        results.append(_entry(
            f"Z(partial {u.to_str()[:10]})",
            z_conjugate(window, i, window.op_partial(u)),
            window.op_partial(alg.braid_on_element(i, u, inverse=True))))
    bound = max(sum(datum.lowest_drop(g)) for g in window.grades) + 1
    comps = _exp_tensor_components(alg, i, bound)
    for g in window.grades:
        if not any(g):
            continue
        for phi in ring.grade_basis(g):
            rhs = window.op_zero(g)
            tphi = _apply_braid_to_element(window, i, phi, inverse=True)
            for b_p, a_p in comps:
                act = ring.u_action(b_p, tphi)
                if act.is_zero():
                    continue
                rhs = rhs + window.op_mult(act, "left").compose(
                    window.op_partial(a_p))
            results.append(_entry(
                f"Z(l_phi) {datum.weight_str(g)} wt "
                f"{datum.weight_str(phi.weight)}",
                z_conjugate(window, i, window.op_mult(phi, "left")), rhs))
    passed = all(r["pass"] for r in results)
    return {"suite": "zw", "i": i, "pass": passed, "results": results}


def _apply_braid_to_element(window: DWindow, i: int, phi: CoordElement,
                            inverse: bool = False) -> CoordElement:
    """T_i^{+-1} of a homogeneous coordinate element (the image is again
    homogeneous, at the reflected weight)."""
    ring = window.ring
    datum = window.datum
    mod = window.module(phi.grade)
    mat = window.op_braid(i, inverse).blocks[tuple(phi.grade)]
    vec = linalg.mat_vec(mat, ring.embed_full(mod, phi))
    target = datum.weyl_act((i,), phi.weight)
    g = datum.drop(phi.grade, target)
    out = [datum.zero()] * ring.factory(phi.grade).slice_dim(g)
    for idx, c in enumerate(vec):
        if c.is_zero():
            continue
        if mod.index_weights[idx] != target:
            raise QflagError("braid image is not weight-homogeneous")
        out[mod.slot_keys[idx][1]] = c
    return CoordElement(ring, phi.grade, g, out)


def extremal_transport_check(window: DWindow, word: Sequence[int],
                             i: int, lam: Weight) -> dict:
    """For w alpha_i positive: Z_{s_i}(l_{c^w_lam}) is left multiplication
    by an extremal element of the shifted Ore set."""
    ring = window.ring
    datum = window.datum
    word = datum.weyl_canonical(word)
    alpha_i_img = datum.weyl_act(word, datum.alpha(i))
    gr = datum.drop(alpha_i_img, datum.zero_weight)
    positive = gr is not None and any(gr)
    c_w = ring.extremal(word, lam)
    z_img = z_conjugate(window, i, window.op_mult(c_w, "left"))
    t_img = _apply_braid_to_element(window, i, c_w, inverse=True)
    ok_formula, cex = z_img.equals(window.op_mult(t_img, "left"))
    ws = datum.weyl_canonical(tuple(word) + (i,))
    c_ws = ring.extremal(ws, lam)
    collinear = _collinear(t_img.vec, c_ws.vec) and t_img.gamma == c_ws.gamma
    report = {
        "instance": f"w={list(word)} i={i} lam={datum.weight_str(lam)}",
        "w_alpha_i_positive": positive,
        "conjugate_is_left_mult": ok_formula,
        "lands_in_shifted_ore_set": collinear if positive else None,
        "pass": ok_formula and (not positive or collinear),
    }
    if cex:
        report["counterexample"] = cex
    return report


def _collinear(a: Vector, b: Vector) -> bool:
    ratio = None
    for x, y in zip(a, b):
        if x.is_zero() != y.is_zero():
            return False
        if not x.is_zero():
            r = x / y
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return True
