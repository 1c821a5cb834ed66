"""The bimodule of a finite-dimensional module tensored with the
coordinate ring.

The carrier is V(mu) (x) A with the tautological right action; the left
action goes through the flip R-operator identification with A (x) V(mu).
A full flag of minus-Borel submodules of V(mu) (lowest weight first) makes
the left action block-triangular, with explicit layer commutation scalars,
and the distinct-weight filtration drives the central-character
separation checks."""

from __future__ import annotations

from typing import List, Optional, Sequence

from . import linalg
from .cartan import (CharacterPoly, RootSum, Weight, box, by_height,
                     weyl_character, within)
from .coordring import CoordElement, CoordRing
from .errors import QflagError
from .linalg import Matrix
from .memo import Memo
from .rmatrix import DrinfeldPairing, r_operator
from .scalars import QScalar


class EBimodule:
    """Truncated model of V(mu) (x) A over a grade window."""

    def __init__(self, ring: CoordRing, pairing: DrinfeldPairing,
                 mu: Weight, cutoff: Weight):
        self.ring = ring
        self.pairing = pairing
        self.datum = ring.datum
        self.mu = tuple(mu)
        self.cutoff = tuple(cutoff)
        self.vmod = ring.module(self.mu)
        self.grades = sorted(box(self.cutoff), key=by_height)
        self.memo = Memo()
        # layer order: lowest weight first (deepest drop), refined arbitrarily
        order = sorted(range(self.vmod.dim),
                       key=lambda i: (-sum(self._drop(i)), self._drop(i), i))
        self.layer_order = order
        self.layer_weights = [self.vmod.index_weights[i] for i in order]
        # distinct weights with the same labeling convention
        self.nu: List[Weight] = []
        for w in self.layer_weights:
            if w not in self.nu:
                self.nu.append(w)
        self.multiplicities = [self.layer_weights.count(w) for w in self.nu]

    def _drop(self, idx: int) -> RootSum:
        g = self.datum.drop(self.mu, self.vmod.index_weights[idx])
        assert g is not None
        return g

    # -- structure matrices -------------------------------------------------------

    def eta(self, lam: Weight) -> Matrix:
        """R-check of A(lam) (x) V(mu) -> V(mu) (x) A(lam)."""
        lam = tuple(lam)
        return self.memo.get(("eta", lam), lambda: r_operator(
            self.pairing, self.ring.module(lam), self.vmod, "R-check").matrix)

    def eta_inv(self, lam: Weight) -> Optional[Matrix]:
        """The inverse of eta(lam), or None where eta(lam) is the identity
        (as at lam = 0, which ``unit_check`` verifies): decided once per
        lam, so ``left_action`` multiplies by no identity."""
        lam = tuple(lam)

        def compute() -> Optional[Matrix]:
            eta = self.eta(lam)
            return None if linalg.is_identity(eta) else linalg.inverse(eta)

        return self.memo.get(("eta_inv", lam), compute)

    def right_action(self, psi: CoordElement, lam: Weight) -> Matrix:
        """Right multiplication by psi on V (x) A(lam) -> V (x) A(lam+xi)."""
        rm = self.ring.full_mult_matrix(lam, psi, "right")
        return linalg.kron(linalg.identity(self.vmod.dim, self.datum.l0), rm)

    def left_action(self, phi: CoordElement, lam: Weight) -> Matrix:
        """Left multiplication by phi through the eta identification."""
        lam = tuple(lam)
        lm = self.ring.full_mult_matrix(lam, phi, "left")
        lv = linalg.kron(lm, linalg.identity(self.vmod.dim, self.datum.l0))
        tgt = self.datum.weight_add(lam, phi.grade)
        inv = self.eta_inv(lam)
        if inv is not None:
            lv = linalg.mat_mul(lv, inv)
        return linalg.mat_mul(self.eta(tgt), lv)

    # -- checks --------------------------------------------------------------

    def unit_check(self) -> bool:
        """eta(1 (x) v) = v (x) 1 for every v (the unit identifications
        agree)."""
        zero = self.datum.zero_weight
        eta0 = self.eta(zero)
        n = self.vmod.dim
        ident = linalg.identity(n, self.datum.l0)
        return linalg.mat_eq(eta0, ident)

    def bimodule_check(self, grades: Optional[Sequence[Weight]] = None) -> dict:
        """(phi e) psi = phi (e psi) for basis phi, psi over window grades."""
        datum = self.datum
        failures = []
        use = [tuple(g) for g in (grades or self.grades)]
        for gphi in use:
            if not any(gphi):
                continue
            for gpsi in use:
                if not any(gpsi):
                    continue
                for glam in use:
                    if not within(self.cutoff, gphi, gpsi, glam):
                        continue
                    for phi in self.ring.grade_basis(gphi):
                        for psi in self.ring.grade_basis(gpsi):
                            l_then_r = linalg.mat_mul(
                                self.right_action(
                                    psi, datum.weight_add(glam, gphi)),
                                self.left_action(phi, glam))
                            r_then_l = linalg.mat_mul(
                                self.left_action(
                                    phi, datum.weight_add(glam, gpsi)),
                                self.right_action(psi, glam))
                            if not linalg.mat_eq(l_then_r, r_then_l):
                                failures.append({
                                    "phi": phi.describe(),
                                    "psi": psi.describe(),
                                    "grade": datum.weight_str(glam)})
        return {"instance": f"E^{self.datum.weight_str(self.mu)}",
                "pass": not failures, "failures": failures}

    def flag_stability_check(self, lam: Weight, xi: Weight) -> bool:
        """Left action of A(xi) maps V^k (x) A(lam) into V^k (x) A(lam+xi)
        for every k: block triangularity in the layer order."""
        datum = self.datum
        na_src = self.ring.module(tuple(lam)).dim
        na_tgt = self.ring.module(datum.weight_add(lam, xi)).dim
        pos_in_layer = {v: k for k, v in enumerate(self.layer_order)}
        for phi in self.ring.grade_basis(tuple(xi)):
            m = self.left_action(phi, tuple(lam))
            for col in range(len(m[0])):
                vcol = col // na_src
                for row in range(len(m)):
                    if m[row][col].is_zero():
                        continue
                    vrow = row // na_tgt
                    if pos_in_layer[vrow] > pos_in_layer[vcol]:
                        return False
        return True

    def commutation_scalar(self, k: int, phi: CoordElement,
                           lam: Weight) -> QScalar:
        """The scalar c with phi vbar_k = c vbar_k phi modulo lower layers
        (so phi (vbar_k psi) = c vbar_k (phi psi) for every right cofactor
        psi), verified against q^{-(nu_k, xi)} with xi the weight of phi."""
        datum = self.datum
        vidx = self.layer_order[k]
        nu_k = self.layer_weights[k]
        expected = datum.q_pair(tuple(-x for x in nu_k), phi.weight)
        amod_src = self.ring.module(tuple(lam))
        tgt_grade = datum.weight_add(lam, phi.grade)
        amod_tgt = self.ring.module(tgt_grade)
        left = self.left_action(phi, tuple(lam))
        lm = self.ring.full_mult_matrix(tuple(lam), phi, "left")
        pos_in_layer = {v: j for j, v in enumerate(self.layer_order)}
        for a in range(amod_src.dim):
            col = vidx * amod_src.dim + a
            for r in range(len(left)):
                vrow = r // amod_tgt.dim
                arow = r % amod_tgt.dim
                rhs = expected * lm[arow][a] if vrow == vidx else datum.zero()
                diff = left[r][col] - rhs
                if not diff.is_zero() and pos_in_layer[vrow] >= k:
                    raise QflagError(
                        f"layer commutation fails at layer {k}, weight "
                        f"{nu_k}: residue outside lower layers")
        return expected

    # -- distinct-weight filtration characters ----------------------------------

    def lambda0(self) -> Weight:
        """Coordinatewise-minimal dominant shift making every lam + nu
        dominant over the weights nu of V(mu)."""
        lows = [min(w[i] for w in self.vmod.index_weights)
                for i in range(self.datum.rank)]
        return tuple(max(0, -lo) for lo in lows)

    def layer_character(self, k: int, lam: Weight) -> CharacterPoly:
        """m_k * ch V(lam + nu_k) for the distinct-weight layer k (1-based
        by convention; 0-based here)."""
        datum = self.datum
        lam = tuple(lam)
        lam0 = self.lambda0()
        if any(l < l0 for l, l0 in zip(lam, lam0)):
            raise QflagError(
                f"grade {lam} below the dominance shift {lam0}")
        nu = self.nu[k]
        ch = weyl_character(datum, datum.weight_add(lam, nu))
        return ch.scale(self.multiplicities[k])

    def total_character_check(self, lam: Weight) -> bool:
        """sum_k m_k ch V(lam+nu_k) == ch V(mu) * ch V(lam)."""
        datum = self.datum
        lam = tuple(lam)
        total = CharacterPoly(datum)
        for k in range(len(self.nu)):
            total = total + self.layer_character(k, lam)
        prod = weyl_character(datum, self.mu) * weyl_character(datum, lam)
        return total == prod


# ---------------------------------------------------------------------------
# central character linkage (the key separation lemma)
# ---------------------------------------------------------------------------

def key_lemma_characters(ring: CoordRing, pairing: DrinfeldPairing,
                         lam: Weight, mu: Weight) -> dict:
    """Decide the two central-character separations along the layer
    weights of V(mu):

    * key2: zeta_{lam+nu_k-nu_1} == zeta_lam  iff  k == 1
      (requires lam + rho dominant; otherwise reported, not asserted),
    * key3: zeta_{lam+nu_k} == zeta_{lam+mu}  iff  k == r
      (requires lam dominant).
    """
    datum = ring.datum
    lam = tuple(lam)
    mu = tuple(mu)
    e = EBimodule(ring, pairing, mu, mu)
    nu = e.nu
    r = len(nu)
    key2_pre = datum.is_dominant(datum.weight_add(lam, datum.rho))
    key3_pre = datum.is_dominant(lam)

    def linkage(base: Weight, shift: Weight, expected: int):
        """The layers nu_k, each with whether lam + nu_k - shift is linked
        to base, and whether that holds exactly at k == expected."""
        layers = []
        for k in range(r):
            wit = datum.linked(base, datum.weight_sub(
                datum.weight_add(lam, nu[k]), shift))
            layers.append({
                "nu_k": datum.weight_str(nu[k]),
                "linked": wit is not None,
                "witness": list(wit) if wit is not None else None,
            })
        return layers, all(layer["linked"] == (k == expected)
                           for k, layer in enumerate(layers))

    key2_layers, key2_ok = linkage(lam, nu[0], 0)
    key3_layers, key3_ok = linkage(datum.weight_add(lam, mu),
                                   datum.zero_weight, r - 1)
    return {
        "lam": datum.weight_str(lam),
        "mu": datum.weight_str(mu),
        "key2": {"precondition": key2_pre, "iff_holds": key2_ok,
                 "layers": key2_layers},
        "key3": {"precondition": key3_pre, "iff_holds": key3_ok,
                 "layers": key3_layers},
        "pass": (key2_ok or not key2_pre) and (key3_ok or not key3_pre),
    }
