"""Constructors for concrete module data.

Relations are checked once, where untrusted matrices come in: build_module
(raw matrices and file loads) and finite_module raise RelationError on a
violation. The other constructors apply an algebra homomorphism (named in
each docstring) to valid modules, so their output is valid unchecked; the
tests confirm it. ModuleData memoizes `relations` and `weights` (the weight
analysis of its own presentation): each is evaluated once, on first read. A
module derived from a checked one inherits what holds on the same matrices:
`restrict_to_ugeq0` fills its result's `weights` memo with the weight
ladder of the module it restricts and, when that module's report is at
hand, its `relations` memo with a report whose relations are derived from
that report (`_RESTRICTED_RELATIONS`), and `extension.extend` fills its
output's `relations` memo the same way (`extension._PREMISES`). Those two
derivation tables are the only ones: each maps a check to the checks it
follows from, and `report.derivable` grants a check when every one of them
passed on the same matrices.

Conventions fixed here (any consistent choice works, and the relation
checker enforces consistency in the tests):

* evaluation modules: e1p/e1m/K1 act as the finite ep/em/k, while
  e0p = a * em, e0m = a^-1 * ep, K0 = kinv, for a nonzero evaluation
  parameter a;
* tensor products use the coproduct
  e_ip -> e_ip x 1 + K_i x e_ip,
  e_im -> e_im x K_i^-1 + 1 x e_im,
  K_i  -> K_i x K_i,
  with tensor basis ordered lexicographically (left index, then right).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from . import weights as weight_analysis
from .errors import ModuleFormatError, RelationError
from .linalg import Matrix, kronecker
from .presentations import (
    AFFINE_BOREL,
    AFFINE_FULL,
    ALPHABETS,
    FINITE,
    UGEQ0,
    check_presentation,
)
from .report import VerificationReport, derivable
from .scalars import QParam, as_scalar, qint

if TYPE_CHECKING:  # pragma: no cover
    from .weights import WeightData

# Looked up in `weights` at call time, so a wrapper set there sees each call.
_ANALYZERS = {
    UGEQ0: "analyze_ugeq0", AFFINE_FULL: "analyze_full", AFFINE_BOREL: "analyze_borel"
}


@dataclass(frozen=True)
class ModuleData:
    """A finite-dimensional module: a presentation tag plus one square matrix
    per generator of that presentation's alphabet."""

    kind: str
    dim: int
    q: QParam
    action: dict[str, Matrix]
    provenance: str

    @cached_property
    def relations(self) -> VerificationReport:
        """The relation report, evaluated once: the object is frozen and its
        matrices are immutable (dataclasses.replace makes a fresh one)."""
        return check_presentation(self.kind, self)

    @cached_property
    def weights(self) -> WeightData | None:
        """analyze_ugeq0, analyze_full or analyze_borel of this module, by its
        presentation (None for a finite module), run once like `relations`;
        raises WeightLadderError on a module that is not a weight ladder."""
        name = _ANALYZERS.get(self.kind)
        return None if name is None else getattr(weight_analysis, name)(self)


def build_module(
    kind: str,
    q: QParam,
    action: dict[str, Matrix],
    provenance: str,
    validate: bool = True,
) -> ModuleData:
    """Assemble ModuleData and verify every defining relation holds exactly."""
    dims = set()
    for gen, mat in action.items():
        if not mat.is_square:
            raise ModuleFormatError(f"action of {gen} is not square")
        dims.add(mat.rows)
    if len(dims) != 1:
        raise ModuleFormatError("all generator matrices must share one dimension")
    data = ModuleData(kind, dims.pop(), q, dict(action), provenance)
    if validate and not data.relations.passed:
        failed = data.relations.failing()[0]
        raise RelationError(
            failed.name,
            f"construction of {provenance!r} violates {failed.name}",
        )
    return data


@dataclass(frozen=True)
class EvalParams:
    """Diameter, sign and evaluation parameter of an evaluation module."""

    d: int
    eps: Fraction
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps", as_scalar(self.eps))
        object.__setattr__(self, "a", as_scalar(self.a))
        if self.d < 0:
            raise ModuleFormatError("diameter must be nonnegative")
        if self.eps * self.eps != 1:
            raise ModuleFormatError(f"eps must be 1 or -1, got {self.eps}")
        if self.a == 0:
            raise ModuleFormatError("evaluation parameter a must be nonzero")


def finite_module(d: int, eps: int | str | Fraction, q: QParam) -> ModuleData:
    """The (d+1)-dimensional finite quantum sl2 module on v_0..v_d with

        k  v_i = eps q^(2i-d) v_i,
        ep v_i = [i+1] v_{i+1}   (ep v_d = 0),
        em v_i = eps [d-i+1] v_{i-1}   (em v_0 = 0).
    """
    eps = as_scalar(eps)
    if eps * eps != 1:
        raise ModuleFormatError(f"eps must be 1 or -1, got {eps}")
    if d < 0:
        raise ModuleFormatError("diameter must be nonnegative")
    n = d + 1
    k = Matrix.diagonal([eps * q.pow(2 * i - d) for i in range(n)])
    kinv = Matrix.diagonal([eps * q.pow(d - 2 * i) for i in range(n)])
    ep_rows = [{i - 1: qint(i, q)} if i else {} for i in range(n)]
    em_rows = [{i + 1: eps * qint(d - i, q)} if i < d else {} for i in range(n)]
    action = {
        "ep": Matrix.from_sparse(n, n, ep_rows),
        "em": Matrix.from_sparse(n, n, em_rows),
        "k": k,
        "kinv": kinv,
    }
    return build_module(FINITE, q, action, f"finite(d={d},eps={eps})")


def evaluation_module(p: EvalParams, q: QParam) -> ModuleData:
    """A (d+1)-dimensional module for the full affine presentation built from
    the finite module of the same diameter and an evaluation parameter,
    pulled back along the evaluation homomorphism (module docstring)."""
    fin = finite_module(p.d, p.eps, q)
    act = fin.action
    ainv = 1 / p.a
    action = {
        "e1p": act["ep"],
        "e1m": act["em"],
        "K1": act["k"],
        "K1inv": act["kinv"],
        "e0p": p.a * act["em"],
        "e0m": ainv * act["ep"],
        "K0": act["kinv"],
        "K0inv": act["k"],
    }
    provenance = f"eval(d={p.d},eps={p.eps},a={p.a})"
    return ModuleData(AFFINE_FULL, fin.dim, q, action, provenance)


def tensor_product(m1: ModuleData, m2: ModuleData) -> ModuleData:
    """Tensor product of two affine modules over the same q, through the
    coproduct (module docstring), an algebra homomorphism."""
    if m1.kind != AFFINE_FULL or m2.kind != AFFINE_FULL:
        raise ModuleFormatError("tensor product requires two affine_full modules")
    if m1.q != m2.q:
        raise ModuleFormatError("tensor factors must share the same q")
    id1 = Matrix.identity(m1.dim)
    id2 = Matrix.identity(m2.dim)
    a1, a2 = m1.action, m2.action
    action: dict[str, Matrix] = {}
    for i in (0, 1):
        action[f"K{i}"] = kronecker(a1[f"K{i}"], a2[f"K{i}"])
        action[f"K{i}inv"] = kronecker(a1[f"K{i}inv"], a2[f"K{i}inv"])
        action[f"e{i}p"] = kronecker(a1[f"e{i}p"], id2) + kronecker(
            a1[f"K{i}"], a2[f"e{i}p"]
        )
        action[f"e{i}m"] = kronecker(a1[f"e{i}m"], a2[f"K{i}inv"]) + kronecker(
            id1, a2[f"e{i}m"]
        )
    provenance = f"tensor({m1.provenance}, {m2.provenance})"
    return ModuleData(AFFINE_FULL, m1.dim * m2.dim, m1.q, action, provenance)


def twist_full(
    m: ModuleData, eps0: int | str | Fraction, eps1: int | str | Fraction
) -> ModuleData:
    """Twist a full affine module by signs: K_i and e_im scale by eps_i,
    e_ip is unchanged. An involution for each sign pair, and an algebra
    automorphism: it scales both sides of each relation by one sign."""
    if m.kind != AFFINE_FULL:
        raise ModuleFormatError("twist_full requires an affine_full module")
    signs = {0: as_scalar(eps0), 1: as_scalar(eps1)}
    for s in signs.values():
        if s * s != 1:
            raise ModuleFormatError(f"twist signs must be 1 or -1, got {s}")
    action = dict(m.action)
    for i, s in signs.items():
        action[f"K{i}"] = s * action[f"K{i}"]
        action[f"K{i}inv"] = s * action[f"K{i}inv"]
        action[f"e{i}m"] = s * action[f"e{i}m"]
    provenance = f"twist({m.provenance}, {signs[0]}, {signs[1]})"
    return ModuleData(AFFINE_FULL, m.dim, m.q, action, provenance)


def twist_borel(m: ModuleData, alpha: int | str | Fraction) -> ModuleData:
    """Rescale K of a ugeq0 module by a nonzero alpha; R and L unchanged.
    Multiplies the module type by alpha. An algebra automorphism: alpha
    cancels from every ugeq0 relation."""
    if m.kind != UGEQ0:
        raise ModuleFormatError("twist_borel requires a ugeq0 module")
    alpha = as_scalar(alpha)
    if alpha == 0:
        raise ModuleFormatError("twist scalar must be nonzero")
    action = dict(m.action)
    action["K"] = alpha * action["K"]
    action["Kinv"] = (1 / alpha) * action["Kinv"]
    return ModuleData(UGEQ0, m.dim, m.q, action, f"ktwist({m.provenance}, {alpha})")


# A derivation table (`report.derivable`): each ugeq0 relation of a
# restriction and the full relation it is. alpha cancels and eps0^2 = 1, so
# the residuals are the same matrices. The serre(R,L) row is this identity,
# not the lowering suite's row of the same name in extension._PREMISES.
_RESTRICTED_RELATIONS = {
    "unit(K Kinv)": ("unit(K0 K0inv)",),
    "unit(Kinv K)": ("unit(K0inv K0)",),
    "weight(K,R)": ("weight(K0,e0p)",),
    "weight(K,L)": ("weight(K0,e1p)",),
    "serre(R,L)": ("serre(e0p,e1p)",),
    "serre(L,R)": ("serre(e1p,e0p)",),
}


def restrict_to_ugeq0(m: ModuleData, alpha: int | str | Fraction) -> ModuleData:
    """View a full affine module through the three-generator presentation:
    R = e0p, L = e1p, K = eps0 * alpha * K0, where eps0 is the module's first
    type sign. The result has type alpha. This assignment is an algebra
    homomorphism from ugeq0 into the full algebra.

    The result inherits what was found on m. Its weight ladder is m's
    weight spaces with type alpha, and no analysis runs. When m's relation
    report is at hand (m was read from a file, which checks it, or has been
    checked since), each relation of the result whose full relation passed
    there is derived (`_RESTRICTED_RELATIONS`), and only the others are
    evaluated; otherwise the result evaluates its own relations when they
    are first read."""
    if m.kind != AFFINE_FULL:
        raise ModuleFormatError("restrict_to_ugeq0 requires an affine_full module")
    alpha = as_scalar(alpha)
    if alpha == 0:
        raise ModuleFormatError("alpha must be nonzero")
    full = m.weights
    eps0 = full.eps0
    action = {
        "R": m.action["e0p"],
        "L": m.action["e1p"],
        "K": (eps0 * alpha) * m.action["K0"],
        "Kinv": (eps0 / alpha) * m.action["K0inv"],
    }
    provenance = f"restrict_ugeq0({m.provenance}, alpha={alpha})"
    restricted = ModuleData(UGEQ0, m.dim, m.q, action, provenance)
    # K acts on K0's weight space i as eps0 alpha eps0 q^(2i-d) = alpha
    # q^(2i-d), and R, L are e0p, e1p, whose moves analyze_full has checked:
    # that is analyze_ugeq0's ladder, which is not searched for again.
    memos = {"weights": weight_analysis.WeightLadder(alpha, full.diameter, full.spaces)}
    if "relations" in vars(m):  # the full report is at hand: derive, do not evaluate
        held = {c.name for c in m.relations.entries if c.passed}
        memos["relations"] = check_presentation(
            UGEQ0, restricted, derivable(_RESTRICTED_RELATIONS, held))
    vars(restricted).update(memos)  # where cached_property keeps `weights`, `relations`
    return restricted


def restrict_to_borel(m: ModuleData) -> ModuleData:
    """Forget the lowering generators: keep only e0p, e1p and the K's. The
    Borel relations are among the full ones, so this inclusion is a
    homomorphism."""
    if m.kind != AFFINE_FULL:
        raise ModuleFormatError("restrict_to_borel requires an affine_full module")
    action = {gen: m.action[gen] for gen in ALPHABETS[AFFINE_BOREL]}
    provenance = f"restrict_borel({m.provenance})"
    return ModuleData(AFFINE_BOREL, m.dim, m.q, action, provenance)
