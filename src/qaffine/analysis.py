"""Structural analysis of modules: submodule spinning, the Burnside
irreducibility test, raising-power isomorphisms and finite-type decomposition.

The irreducibility test computes the linear span of all words in the
generator matrices by iterated left multiplication (deterministic, no
randomization); by Burnside's theorem the module is absolutely irreducible
exactly when that span is the full matrix algebra of dimension dim^2.

The span is first computed modulo the prime p = 2^61 - 1, in int arithmetic,
with each entry a/b read as a * b^-1 mod p. Reduction mod p is a ring map on
the rationals whose denominators p does not divide, so it sends each word to
the word in the reduced generators, and a minor of the words that is nonzero
mod p is the reduction of a nonzero rational minor. Hence the rank over F_p
is at most the rank over Q, which is at most dim^2, and a mod-p span of
dim^2 proves absolute irreducibility without exact elimination. The modular
result is used only as that proof: when the mod-p span is smaller, or p
divides some denominator, the span is recomputed in exact Fractions, and only
that exact path may report NotIrreducible. The prime and the mod-p rank are
recorded in the report.

When the span is smaller than dim^2, a proper invariant subspace is hunted by
spinning standard basis vectors and then kernel vectors of shifted
generators. A rational module that is irreducible but not absolutely so would
be reported NotIrreducible with no witness and its span dimension as the
diagnostic.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

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

# The prime of the modular irreducibility certificate (a Mersenne prime).
MODULUS = (1 << 61) - 1


@dataclass(frozen=True)
class SpinResult:
    """The smallest subspace containing a seed vector and closed under every
    generator matrix."""

    generated: Subspace
    generators_used: tuple[str, ...]
    steps: int


@dataclass(frozen=True)
class IrreducibilityReport:
    """Verdict of the word-span test. `prime` is the modulus of the modular
    pass and `modular_rank` its span dimension, None when the prime divides
    a denominator of the action."""

    word_span_dim: int
    verdict: str
    witness: Subspace | None = None
    prime: int | None = None
    modular_rank: int | None = None


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


def _reduce_mod(mat: Matrix) -> list[int] | None:
    """Entries a/b of mat as a * b^-1 mod MODULUS, row-major; None when
    MODULUS divides a denominator."""
    out = []
    for x in mat.entries:
        if x.denominator % MODULUS == 0:
            return None
        out.append(x.numerator * pow(x.denominator, -1, MODULUS) % MODULUS)
    return out


class _ModularSpan:
    """Incremental span of int vectors mod MODULUS. Each stored row starts at
    its pivot with entry 1; rows are reduced in pivot order, and entries are
    taken mod MODULUS only where a coefficient is read and at the end."""

    def __init__(self):
        self.order: list[int] = []
        self.rows: dict[int, list[int]] = {}

    def insert(self, v: list[int]) -> bool:
        """Add v to the span; returns True when the dimension grew."""
        p = MODULUS
        w = list(v)
        for k in self.order:
            c = w[k] % p
            if c:
                w[k:] = [a - c * b for a, b in zip(w[k:], self.rows[k])]
        lead = None
        for i, x in enumerate(w):
            w[i] = x = x % p
            if x and lead is None:
                lead = i
        if lead is None:
            return False
        inv = pow(w[lead], -1, p)
        self.rows[lead] = [x * inv % p for x in w[lead:]]
        insort(self.order, lead)
        return True


def _mul_mod(g: list[list[tuple[int, int]]], w: list[int], n: int) -> list[int]:
    """g @ w mod MODULUS for a row-major n x n int matrix w and a matrix g
    given as its nonzero (column, entry) pairs per row; generators are
    sparse."""
    out: list[int] = []
    for terms in g:
        acc = [0] * n
        for t, c in terms:
            acc = [a + c * x for a, x in zip(acc, w[t * n : (t + 1) * n])]
        out.extend(a % MODULUS for a in acc)
    return out


def _modular_word_span(m: "ModuleData") -> int | None:
    """Dimension over F_p, p = MODULUS, of the span of all words in the
    generators reduced mod p, by the frontier closure of `_word_span`,
    stopping once it reaches dim^2; None when p divides a denominator of the
    action."""
    n = m.dim
    gens = [_reduce_mod(m.action[g]) for g in sorted(m.action)]
    if any(g is None for g in gens):
        return None
    sparse = [
        [[(t, c) for t, c in enumerate(g[i * n : (i + 1) * n]) if c]
         for i in range(n)]
        for g in gens
    ]
    full = n * n
    identity = [int(i % (n + 1) == 0) for i in range(full)]
    acc = _ModularSpan()
    frontier = [seed for seed in [identity] + gens if acc.insert(seed)]
    while frontier and len(acc.order) < full:
        new_frontier = []
        for w in frontier:
            for g in sparse:
                gw = _mul_mod(g, w, n)
                if acc.insert(gw):
                    new_frontier.append(gw)
                    if len(acc.order) == full:
                        return full
        frontier = new_frontier
    return len(acc.order)


def _witness_candidates(m: "ModuleData") -> Iterator[tuple[Fraction, ...]]:
    """Seed vectors likely to generate a proper submodule: the standard basis,
    then kernel bases of every rational eigenvalue shift of each generator.
    The eigenvalues are computed only once the standard basis is used up."""
    n = m.dim
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        yield tuple(e)
    for g in sorted(m.action):
        mat = m.action[g]
        for lam in sorted(set(rational_roots(char_poly(mat)))):
            yield from kernel(mat.shift(lam)).basis.columns()


def burnside_irreducible(m: "ModuleData") -> IrreducibilityReport:
    """Word-span irreducibility test with witness search.

    Absolutely irreducible iff the word span has dimension dim^2; otherwise
    NotIrreducible, with a spin-verified proper invariant subspace as witness
    whenever one of the candidate seeds finds one. A mod-MODULUS span of
    dim^2 certifies the first case; every other case is decided in exact
    arithmetic.
    """
    n = m.dim
    modular_rank = _modular_word_span(m)
    if modular_rank == n * n:
        return IrreducibilityReport(
            n * n, ABSOLUTELY_IRREDUCIBLE, None, MODULUS, modular_rank
        )
    span_dim = _word_span(m)
    if span_dim == n * n:
        return IrreducibilityReport(
            span_dim, ABSOLUTELY_IRREDUCIBLE, None, MODULUS, modular_rank
        )
    witness = None
    for v in _witness_candidates(m):
        if all(x == 0 for x in v):
            continue
        generated = spin(v, m).generated
        if 0 < generated.dim < n:
            witness = generated
            break
    return IrreducibilityReport(
        span_dim, NOT_IRREDUCIBLE, witness, MODULUS, modular_rank
    )


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
