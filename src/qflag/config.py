"""Run configuration shared by the CLI and the verification suites."""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .cartan import CartanDatum, preset


class RunConfig(NamedTuple):
    """Everything a suite run depends on; the seed fully determines any
    randomized choices.  Immutable; a named tuple, so importing it pulls
    in no ``dataclasses`` (and with it ``inspect`` and ``ast``)."""

    type: str = "A1"
    cartan_matrix: Optional[Tuple[Tuple[int, ...], ...]] = None
    cutoff: Optional[Tuple[int, ...]] = None
    depth: Optional[Tuple[int, ...]] = None
    seed: int = 0
    max: int = 4
    corrupt: bool = False

    def datum(self) -> CartanDatum:
        if self.cartan_matrix is not None:
            return CartanDatum(self.cartan_matrix, name="custom")
        return preset(self.type)

    def describe(self) -> dict:
        """The run's settings; ``type`` is None when a matrix gives the
        datum, since the label then names nothing."""
        return {
            "type": self.type if self.cartan_matrix is None else None,
            "cartan_matrix": [list(r) for r in self.cartan_matrix]
            if self.cartan_matrix else None,
            "cutoff": list(self.cutoff) if self.cutoff else None,
            "depth": list(self.depth) if self.depth else None,
            "seed": self.seed,
            "max": self.max,
            "corrupt": self.corrupt,
        }
