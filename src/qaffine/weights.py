"""Weight-space decompositions, types and diameters.

One analyzer, driven by a small per-presentation table, walks the spectrum
of the K-type generator: the rational eigenvalues must form a single
q^2-ladder zeta, q^2 zeta, ..., q^(2d) zeta, the generator must act
semisimply, and the raising/lowering generators must move each weight space
to its neighbors on the weight Ladder. Irreducibility is never assumed;
all of these properties are verified directly and a WeightLadderError names
whichever one fails, because callers may feed non-irreducible or hand-edited
module files.

Inputs whose K-spectrum leaves the rationals are rejected with a diagnostic
rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import WeightLadderError
from .linalg import (
    Ladder,
    Matrix,
    Subspace,
    eigenvalues,
    first_escape,
    kernel,
)
from .presentations import AFFINE_BOREL, AFFINE_FULL, UGEQ0
from .scalars import QParam

if TYPE_CHECKING:  # pragma: no cover
    from .factory import ModuleData


@dataclass(frozen=True)
class WeightLadder:
    """Type scalar, diameter and weight spaces of a ugeq0-style module:
    K acts on spaces[i] as alpha * q^(2i - d)."""

    alpha: Fraction
    diameter: int
    spaces: tuple[Subspace, ...]

    @property
    def summary(self) -> str:
        return f"type={self.alpha} diameter={self.diameter}"


@dataclass(frozen=True)
class FullWeightData:
    """Type signs, diameter and weight spaces of a full affine module:
    K0 acts on spaces[i] as eps0 * q^(2i - d), K1 as eps1 * q^(d - 2i)."""

    eps0: Fraction
    eps1: Fraction
    diameter: int
    spaces: tuple[Subspace, ...]

    @property
    def summary(self) -> str:
        return f"type=({self.eps0},{self.eps1}) diameter={self.diameter}"


@dataclass(frozen=True)
class BorelWeightData:
    """Type pair (alpha, beta), diameter and weight spaces of a Borel module;
    K0 K1 acts as the scalar gamma = alpha * beta."""

    alpha: Fraction
    beta: Fraction
    diameter: int
    spaces: tuple[Subspace, ...]

    @property
    def summary(self) -> str:
        return f"type=({self.alpha},{self.beta}) diameter={self.diameter}"


WeightData = WeightLadder | FullWeightData | BorelWeightData


def k_ladder(K: Matrix, q: QParam, label: str = "K") -> tuple[Fraction, list[Subspace]]:
    """Bottom eigenvalue and eigenspace ladder of a semisimple K action.

    Finds the rational eigenvalue zeta with zeta / q^2 not an eigenvalue and
    climbs zeta, q^2 zeta, ... as long as eigenvalues exist; the ladder must
    exhaust the spectrum and the eigenspace dimensions must fill the space.
    The spectrum is `eigenvalues(K)`: a triangular K's sorted diagonal.
    """
    n = K.rows
    roots = eigenvalues(K)
    if len(roots) < n:
        raise WeightLadderError(
            f"{label} has eigenvalues outside the rationals "
            f"({len(roots)} of {n} found)"
        )
    distinct = sorted(set(roots))
    present = set(distinct)
    if 0 in present:
        raise WeightLadderError(f"{label} is singular")
    q2 = q.pow(2)
    bottoms = [r for r in distinct if r / q2 not in present]
    if len(bottoms) != 1:
        raise WeightLadderError(
            f"eigenvalues of {label} do not form a single q^2-ladder: "
            f"{len(bottoms)} ladder bottoms among {[str(r) for r in distinct]}"
        )
    zeta = bottoms[0]
    values = [zeta]
    while values[-1] * q2 in present:
        values.append(values[-1] * q2)
    if set(values) != present:
        raise WeightLadderError(
            f"eigenvalues of {label} do not form a single q^2-ladder"
        )
    spaces = [kernel(K, v) for v in values]
    if sum(s.dim for s in spaces) != n:
        raise WeightLadderError(f"{label} does not act semisimply")
    return zeta, spaces


def _scalar_action(mat: Matrix, label: str) -> Fraction:
    """The scalar c with mat = c I, or a WeightLadderError: every row i of
    mat must be exactly c at i (no entry at all when c = 0)."""
    c = mat.at(0, 0)
    if any(row != (((i, c),) if c else ()) for i, row in enumerate(mat.sparse_rows)):
        raise WeightLadderError(f"{label} does not act as a scalar")
    return c


@dataclass(frozen=True)
class _Shape:
    """How one presentation carries its weight ladder."""

    article: str  # of the presentation name, for the kind guard's message
    k: str  # the generator whose q^2-ladder gives the weight spaces
    partner: str | None  # K1: k times partner must act as a scalar gamma
    signs: bool  # whether alpha and gamma / alpha must be 1 or -1
    moves: tuple[tuple[str, int], ...]  # (generator, step) along the ladder
    result: type


_SHAPES = {
    UGEQ0: _Shape("a", "K", None, False, (("R", +1), ("L", -1)), WeightLadder),
    AFFINE_FULL: _Shape(
        "an", "K0", "K1", True,
        (("e0p", +1), ("e1m", +1), ("e0m", -1), ("e1p", -1)), FullWeightData,
    ),
    AFFINE_BOREL: _Shape(
        "an", "K0", "K1", False, (("e0p", +1), ("e1p", -1)), BorelWeightData,
    ),
}


def _analyze(kind: str, m: "ModuleData") -> WeightData:
    """Type, diameter and weight spaces of a module of the given kind.

    The k ladder fixes alpha and d; the partner's type value comes from the
    scalar action of k times partner. Verifies that every listed generator
    moves each weight space by its step (zero off the ends of the ladder).
    """
    shape = _SHAPES[kind]
    if m.kind != kind:
        raise WeightLadderError(f"expected {shape.article} {kind} module, got {m.kind}")
    zeta, spaces = k_ladder(m.action[shape.k], m.q, shape.k)
    ladder = Ladder(spaces)
    d = len(spaces) - 1
    alpha = zeta * m.q.pow(d)
    if shape.signs and alpha * alpha != 1:
        raise WeightLadderError(
            f"{shape.k} ladder is not centered at a sign: alpha = {alpha}"
        )
    values = [alpha]
    if shape.partner is not None:
        label = f"{shape.k} {shape.partner}"
        gamma = _scalar_action(m.action[shape.k] @ m.action[shape.partner], label)
        value = gamma / alpha
        if shape.signs and value * value != 1:
            raise WeightLadderError(
                f"{label} scalar is not a sign pair: gamma = {gamma}"
            )
        # k is invertible (0 is not on its ladder) and k partner = gamma I, so
        # partner = gamma k^-1 acts on weight space i as
        # gamma / (alpha q^(2i-d)) = value q^(d-2i): nothing is left to check.
        values.append(value)
    for gen, step in shape.moves:
        i = first_escape(m.action[gen], None, ladder, ladder.step(step))
        if i is not None:
            raise WeightLadderError(
                f"{gen} does not map weight space {i} into weight space {i + step}"
            )
    return shape.result(*values, d, ladder.spaces)


def analyze_ugeq0(m: "ModuleData") -> WeightLadder:
    """Type, diameter and weight spaces of a ugeq0 module; verifies the
    direct-sum property and that R raises and L lowers along the ladder."""
    return _analyze(UGEQ0, m)


def analyze_full(m: "ModuleData") -> FullWeightData:
    """Type signs, diameter and weight spaces of a full affine module.

    The K0 ladder fixes eps0 and d; eps1 comes from the scalar action of
    K0 K1, which then fixes K1's eigenvalues. Verifies that e0p, e1m raise
    while e0m, e1p lower.
    """
    return _analyze(AFFINE_FULL, m)


def analyze_borel(m: "ModuleData") -> BorelWeightData:
    """Type pair (alpha, beta) and weight spaces of a Borel module: alpha from
    the K0 ladder, beta = gamma / alpha with gamma the scalar of K0 K1."""
    return _analyze(AFFINE_BOREL, m)
