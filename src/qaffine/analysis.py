"""Structural analysis of modules: submodule spinning, the Burnside
irreducibility test, raising-power isomorphisms and finite-type decomposition.

The irreducibility test computes the linear span of all words in the
generator matrices by iterated left multiplication (deterministic, no
randomization); by Burnside's theorem the module is absolutely irreducible
exactly when that span is the full matrix algebra. When the span is smaller,
a proper invariant subspace is hunted by spinning standard basis vectors and
kernel vectors of shifted generators. A rational module that is irreducible
but not absolutely so would be reported NotIrreducible with no witness and
its span dimension as the diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import CheckFailedError, WeightLadderError
from .linalg import (
    Matrix,
    SpanAccumulator,
    Subspace,
    char_poly,
    image,
    kernel,
    rational_roots,
    rank,
    subspace_intersect,
)
from .report import CheckLog, CheckResult
from .weights import analyze_full, k_ladder

if TYPE_CHECKING:  # pragma: no cover
    from .factory import ModuleData

ABSOLUTELY_IRREDUCIBLE = "AbsolutelyIrreducible"
NOT_IRREDUCIBLE = "NotIrreducible"


@dataclass(frozen=True)
class SpinResult:
    """The smallest subspace containing a seed vector and closed under every
    generator matrix."""

    generated: Subspace
    generators_used: tuple[str, ...]
    steps: int


@dataclass(frozen=True)
class IrreducibilityReport:
    word_span_dim: int
    verdict: str
    witness: Subspace | None = None


def spin(v: Sequence[Fraction], m: "ModuleData") -> SpinResult:
    """Close a nonzero vector under the generator action."""
    if all(x == 0 for x in v):
        raise ValueError("cannot spin the zero vector")
    if len(v) != m.dim:
        raise ValueError("vector length does not match module dimension")
    gens = tuple(sorted(m.action))
    acc = SpanAccumulator(m.dim)
    acc.insert(v)
    frontier = [tuple(v)]
    steps = 0
    while frontier:
        steps += 1
        new_frontier = []
        for w in frontier:
            for g in gens:
                gw = m.action[g].apply(w)
                if acc.insert(gw):
                    new_frontier.append(gw)
        frontier = new_frontier
    generated = acc.to_subspace()
    for g in gens:
        if not generated.contains(image(m.action[g], generated)):
            raise CheckFailedError(
                "spin-closure", f"spin result is not invariant under {g}"
            )
    return SpinResult(generated, gens, steps)


def _word_span(m: "ModuleData") -> int:
    """Dimension of the span of all words in the generator matrices."""
    n = m.dim
    acc = SpanAccumulator(n * n)
    frontier: list[Matrix] = []
    for seed in [Matrix.identity(n)] + [m.action[g] for g in sorted(m.action)]:
        if acc.insert(seed.entries):
            frontier.append(seed)
    gens = [m.action[g] for g in sorted(m.action)]
    while frontier:
        new_frontier = []
        for w in frontier:
            for g in gens:
                gw = g @ w
                if acc.insert(gw.entries):
                    new_frontier.append(gw)
        frontier = new_frontier
    return acc.dim


def _witness_candidates(m: "ModuleData") -> list[tuple[Fraction, ...]]:
    """Seed vectors likely to generate a proper submodule: the standard basis
    and kernel bases of every rational eigenvalue shift of each generator."""
    n = m.dim
    candidates: list[tuple[Fraction, ...]] = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        candidates.append(tuple(e))
    for g in sorted(m.action):
        mat = m.action[g]
        for lam in sorted(set(rational_roots(char_poly(mat)))):
            eig = kernel(mat.shift(lam))
            candidates.extend(eig.basis.columns())
    return candidates


def burnside_irreducible(m: "ModuleData") -> IrreducibilityReport:
    """Word-span irreducibility test with witness search.

    Absolutely irreducible iff the word span has dimension dim^2; otherwise
    NotIrreducible, with a spin-verified proper invariant subspace as witness
    whenever one of the candidate seeds finds one.
    """
    n = m.dim
    span_dim = _word_span(m)
    if span_dim == n * n:
        return IrreducibilityReport(span_dim, ABSOLUTELY_IRREDUCIBLE, None)
    witness = None
    for v in _witness_candidates(m):
        if all(x == 0 for x in v):
            continue
        generated = spin(v, m).generated
        if 0 < generated.dim < n:
            witness = generated
            break
    return IrreducibilityReport(span_dim, NOT_IRREDUCIBLE, witness)


def verify_raising_powers(m: "ModuleData") -> list[CheckResult]:
    """Raising-power isomorphism suite on a full affine module.

    For each 0 <= j <= d/2, with U the weight ladder:
      (i)   e0p^(d-2j) restricted to U_j is a bijection onto U_{d-j};
      (ii)  on U_j, the kernels of e0p^(d-2j+1) and of e0m agree exactly;
      (iii) e1p^(d-2j) restricted to U_{d-j} is a bijection onto U_j;
      (iv)  on U_{d-j}, the kernels of e1p^(d-2j+1) and of e1m agree exactly.

    Raises CheckFailedError at the first failure (a failure signals a
    non-irreducible or corrupted input).
    """
    wd = analyze_full(m)
    d = wd.diameter
    log = CheckLog(strict=True)
    anchor = "raising-power isomorphisms"
    e0p, e0m = m.action["e0p"], m.action["e0m"]
    e1p, e1m = m.action["e1p"], m.action["e1m"]
    for j in range(d // 2 + 1):
        u_low, u_high = wd.spaces[j], wd.spaces[d - j]
        up = e0p.power(d - 2 * j)
        img = image(up, u_low)
        log.condition(
            f"iso(e0p^{d - 2 * j}: U{j} -> U{d - j})",
            anchor,
            img.dim == u_low.dim and img == u_high,
            f"image dim {img.dim}, expected bijection onto weight space {d - j}",
        )
        ker_power = subspace_intersect(kernel(e0p.power(d - 2 * j + 1)), u_low)
        ker_lower = subspace_intersect(kernel(e0m), u_low)
        log.condition(
            f"kernel-match(e0p^{d - 2 * j + 1}, e0m on U{j})",
            anchor,
            ker_power == ker_lower,
            f"kernel dims {ker_power.dim} vs {ker_lower.dim} on weight space {j}",
        )
        down = e1p.power(d - 2 * j)
        img_down = image(down, u_high)
        log.condition(
            f"iso(e1p^{d - 2 * j}: U{d - j} -> U{j})",
            anchor,
            img_down.dim == u_high.dim and img_down == u_low,
            f"image dim {img_down.dim}, expected bijection onto weight space {j}",
        )
        ker_power1 = subspace_intersect(kernel(e1p.power(d - 2 * j + 1)), u_high)
        ker_lower1 = subspace_intersect(kernel(e1m), u_high)
        log.condition(
            f"kernel-match(e1p^{d - 2 * j + 1}, e1m on U{d - j})",
            anchor,
            ker_power1 == ker_lower1,
            f"kernel dims {ker_power1.dim} vs {ker_lower1.dim} "
            f"on weight space {d - j}",
        )
    return log.entries


def finite_decompose(m: "ModuleData", i: int) -> list[tuple[int, int]]:
    """Summand shape of the finite quantum sl2 structure through (e_i, K_i).

    Views the module through (ep, em, k) = (e_ip, e_im, K_i), whose k-ladder
    S_0..S_d it computes afresh, and returns one (r, dim) pair per irreducible
    summand: a summand of radius r meets exactly the weight spaces S_r..S_{d-r}
    and has dimension d - 2r + 1. Multiplicities come from the rank increments
    of e_ip powers mapping S_j into S_{d-j}.
    """
    if i not in (0, 1):
        raise ValueError("finite structure index must be 0 or 1")
    if m.kind != "affine_full":
        raise WeightLadderError("finite_decompose requires an affine_full module")
    k = m.action[f"K{i}"]
    ep = m.action[f"e{i}p"]
    _, spaces = k_ladder(k, m.q, f"K{i}")
    d = len(spaces) - 1
    summands: list[tuple[int, int]] = []
    previous = 0
    for j in range(d // 2 + 1):
        reach = rank(ep.power(d - 2 * j) @ spaces[j].basis)
        mult = reach - previous
        if mult < 0:
            raise WeightLadderError(
                f"rank sequence of e{i}p powers is not monotone at step {j}"
            )
        summands.extend((j, d - 2 * j + 1) for _ in range(mult))
        previous = reach
    total = sum(dim for _, dim in summands)
    if total != m.dim:
        raise WeightLadderError(
            f"summand dimensions sum to {total}, expected {m.dim}; "
            "the finite structure is not semisimple with a symmetric ladder"
        )
    return summands
