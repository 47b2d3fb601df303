"""Structural analysis of modules: submodule spinning, the Burnside
irreducibility test, raising-power isomorphisms and finite-type decomposition.

Spinning a row, the span of the words in the generators and the dual spin
of the irreducibility test are one frontier closure, `_closure`: the span of
sparse integer seed rows ({index: entry}, as an echelon holds them; `spin`
takes one) closed under matrices given by their columns (`Matrix.int_cols`,
the integer rows of their transposes), each image formed over nonzero
entries only. The word span is the closure of vec(I) under g (x) I for the
generators g, since vec(g W) = (g (x) I) vec(W); no word is held as dim^2
dense entries.

Irreducibility is first decided by Norton's criterion (Parker 1984, the
MeatAxe; Holt-Rees 1994). Let A be the algebra of words in the generators
and theta = g - lambda I, for the first generator g in sorted order and the
first of its rational eigenvalues lambda in increasing order whose
eigenspace is one-dimensional; theta lies in A, since I is the empty word.
If the kernel vector of theta spins to all of V under the generators, and
the kernel vector of theta^T spins to all of V* under their transposes, then
V is irreducible. For let W be a proper nonzero submodule. If W meets
ker theta, it contains the kernel vector and so its whole spin. Otherwise
theta is injective on W, hence bijective on it, so theta has a kernel on
V/W of the same dimension as on V. The annihilator of W in V* is the dual of
V/W, a proper submodule for the transposes on which theta^T has a kernel of
that dimension too; so it contains ker theta^T and its whole spin. The nullity of theta and the dimensions of both spins are ranks
of rational matrices, which no field extension changes, so the same argument
holds over every extension field: V is *absolutely* irreducible, and by
Burnside's theorem the words span all dim^2 matrices. The certificate
reports that span dimension without computing it.

When Norton's test does not decide, a proper invariant subspace W is hunted
first, by spinning the unit rows, then the kernel rows of shifted
generators. With a witness, the word span may follow from the two
composition factors (the MeatAxe argument; `_composition_span` states the
lemma and proves it). Its premises: Norton's criterion certifies both W
and Q = V/W absolutely irreducible, and dim W != dim Q. Then the words
span n1^2 + n2^2 matrices if V = W (+) Q as modules and n1^2 + n2^2 + n1 n2
if not, with n1 = dim W and n2 = dim Q; whether V splits is one linear
system in n1 n2 unknowns. Every other case (no witness, a factor Norton
cannot certify, factors of equal dimension, three or more composition
factors) is decided in exact arithmetic: the span of all words in the
generator matrices is the closure of the identity under left
multiplication (deterministic, no randomization), and the module is
absolutely irreducible exactly when it has dimension dim^2. The report
names the certificate that decided: NORTON, COMPOSITION or WORD_SPAN. Only
the last two report NotIrreducible, with the span dimension as the
diagnostic. A rational module that is irreducible but not absolutely so
would be reported NotIrreducible with no witness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import CheckFailedError, WeightLadderError
from .linalg import (
    IntRow,
    Matrix,
    Row,
    SpanAccumulator,
    Subspace,
    _echelon,
    eigenvalues,
    image,
    int_row,
    kernel,
    left_kernel,
    row_product,
    subspace_intersect,
)
from .report import CheckLog, CheckResult
from .weights import analyze_full, k_ladder

if TYPE_CHECKING:  # pragma: no cover
    from .factory import ModuleData

ABSOLUTELY_IRREDUCIBLE = "AbsolutelyIrreducible"
NOT_IRREDUCIBLE = "NotIrreducible"
NORTON = "norton"
COMPOSITION = "composition"
WORD_SPAN = "word-span"


@dataclass(frozen=True)
class IrreducibilityReport:
    """Verdict of the irreducibility test. `certificate` names what decided
    it: NORTON (Norton's criterion, word_span_dim = dim^2 by Burnside's
    theorem), COMPOSITION (a witness W whose sub- and quotient modules pass
    Norton's criterion and differ in dimension, word_span_dim counted by
    the lemma of `_composition_span`) or WORD_SPAN (the exact word span)."""

    word_span_dim: int
    verdict: str
    witness: Subspace | None
    certificate: str


def _closure(
    seeds: Iterable[Row | IntRow],
    columns: Sequence[Sequence[Iterable[tuple[int, int]]]],
    ambient: int,
) -> SpanAccumulator:
    """The span of the sparse seeds closed under some matrices, each given
    by its columns: the integer rows of its transpose. Every vector that
    enlarges the span is mapped again, level by level, until no image
    enlarges it or it is all of F^ambient. The image M v is formed as the
    row v times the columns of M (`row_product`), so it touches only the
    columns where v is nonzero. Scaling a vector or a map by a nonzero
    constant does not change a span, so the seeds are cleared to integers
    once and the closure builds no Fraction. Each image is already a sparse
    integer row, so a copy of it goes straight to the echelon."""
    acc = SpanAccumulator(ambient)
    frontier = [v for v in map(int_row, seeds) if acc._add(dict(v))]
    while frontier and acc.dim < ambient:
        new_frontier = []
        for v in frontier:
            for cols in columns:
                w = row_product(v.items(), cols)
                if acc._add(dict(w)):
                    new_frontier.append(w)
        frontier = new_frontier
    return acc


def spin(seed: Row | IntRow, m: "ModuleData") -> Subspace:
    """The smallest subspace containing a nonzero sparse vector, {index:
    entry}, and closed under every generator matrix."""
    if not any(seed.values()):
        raise ValueError("cannot spin the zero vector")
    if not all(0 <= i < m.dim for i in seed):
        raise ValueError("vector index out of range for the module dimension")
    gens = sorted(m.action)
    columns = [m.action[g].int_cols for g in gens]
    generated = _closure([seed], columns, m.dim).to_subspace()
    for g in gens:
        if not generated.contains_image(m.action[g], generated):
            raise CheckFailedError(
                "spin-closure", f"spin result is not invariant under {g}"
            )
    return generated


def _word_span(m: "ModuleData") -> int:
    """Dimension of the span of all words in the generator matrices: the
    closure of vec(I) under g (x) I for each generator g, since vec(g W) =
    (g (x) I) vec(W) for the row-major vec of dim^2 entries. The columns of
    g (x) I are the rows of g^T (x) I: row a n + b holds g[c, a] at c n + b
    for each entry of g's column a, read from g's integer columns."""
    n = m.dim
    columns = []
    for g in sorted(m.action):
        cols = m.action[g].int_cols
        columns.append([tuple([(c * n + b, v) for c, v in cols[a]])
                        for a in range(n) for b in range(n)])
    return _closure([{i * n + i: 1 for i in range(n)}], columns, n * n).dim


def _eigenspaces(m: "ModuleData") -> Iterator[tuple[Matrix, Fraction, Subspace]]:
    """(g, lambda, ker(g - lambda I)) for each generator g in sorted order
    and each distinct rational eigenvalue lambda of g in increasing order."""
    for g in sorted(m.action):
        mat = m.action[g]
        for lam in sorted(set(eigenvalues(mat))):
            yield mat, lam, kernel(mat, lam)


def _norton_theta(m: "ModuleData") -> tuple[Matrix, Fraction, Subspace] | None:
    """The first (g, lambda, ker theta) of `_eigenspaces`, theta = g -
    lambda I, with a one-dimensional kernel; None when no generator has a
    one-dimensional eigenspace."""
    return next((found for found in _eigenspaces(m) if found[2].dim == 1), None)


def _norton(m: "ModuleData") -> bool:
    """True when Norton's criterion proves m absolutely irreducible (module
    docstring); False decides nothing. The kernel row of theta spins under
    the generators; only if it fills V is the kernel row of theta^T closed
    under their transposes, whose columns are the generators' rows."""
    found = _norton_theta(m)
    if found is None:
        return False
    mat, lam, null = found
    n = m.dim
    [row] = null.pivot_rows.values()
    rows = [m.action[g].int_rows for g in sorted(m.action)]
    return (
        spin(row, m).dim == n
        and _closure(left_kernel(mat, lam).pivot_rows.values(), rows, n).dim == n
    )


def _witness_candidates(m: "ModuleData") -> Iterator[IntRow]:
    """Seeds likely to generate a proper submodule: the unit rows, then the
    kernel rows of every rational eigenvalue shift of each generator, in
    increasing pivot order. The eigenvalues are computed only once the unit
    rows are used up."""
    yield from ({i: 1} for i in range(m.dim))
    for *_, null in _eigenspaces(m):
        yield from (null.pivot_rows[p] for p in sorted(null.pivot_rows))


def _factors(
    m: "ModuleData", w: Subspace
) -> tuple[dict[str, Matrix], dict[str, Matrix], dict[str, Matrix]]:
    """The actions g_W on the invariant subspace w, g_Q on V/w and the
    corner c_g of each generator, g = [[g_W, c_g], [0, g_Q]] in the basis
    of V adapted to w: w's reduced rows b_p = N_p / N_p[p], in pivot order,
    then the unit vectors e_c at the other indices c, in order. A vector of
    w has its coordinates at w's pivots, since b_p is 1 at p and 0 at every
    other pivot; so g_W[q, p] = (g b_p)[q] and c_g[p, c] = g[p, c]. The
    class of g e_c in V/w is g e_c less sum_p g[p, c] b_p, which vanishes at
    the pivots: g_Q keeps its other entries. Each column is formed over the
    nonzero entries of den * g's columns and of the rows N_p, and its
    entries go straight into the rows of the block."""
    rows = w.pivot_rows
    sub_at = {p: k for k, p in enumerate(sorted(rows))}
    quot_at = {c: k for k, c in enumerate(c for c in range(m.dim) if c not in rows)}
    n1, n2 = len(sub_at), len(quot_at)
    sub, quot, corner = {}, {}, {}
    for g in sorted(m.action):
        den, cols = m.action[g].den, m.action[g].int_cols
        sub_rows: list[Row] = [{} for _ in range(n1)]
        for p, k in sub_at.items():
            s = den * rows[p][p]
            for i, x in row_product(rows[p].items(), cols).items():
                if i in sub_at:
                    sub_rows[sub_at[i]][k] = Fraction(x, s)
        quot_rows: list[Row] = [{} for _ in range(n2)]
        corner_rows: list[Row] = [{} for _ in range(n1)]
        for c, k in quot_at.items():
            top = {p: x for p, x in cols[c] if p in sub_at}
            out = {quot_at[i]: Fraction(x, den) for i, x in cols[c] if i in quot_at}
            for p, x in top.items():
                s = Fraction(x, den * rows[p][p])
                for i, y in rows[p].items():
                    if i != p:
                        t = quot_at[i]
                        out[t] = out[t] - s * y if t in out else -s * y
                corner_rows[sub_at[p]][k] = Fraction(x, den)
            for t, v in out.items():
                quot_rows[t][k] = v
        sub[g] = Matrix.from_sparse(n1, n1, sub_rows)
        quot[g] = Matrix.from_sparse(n2, n2, quot_rows)
        corner[g] = Matrix.from_sparse(n1, n2, corner_rows)
    return sub, quot, corner


def _splits(sub: "ModuleData", quot: "ModuleData", corner: dict[str, Matrix]) -> bool:
    """Whether V = W (+) Q as modules, for the blocks g_W, g_Q and c_g of
    `_factors`, the first two as the modules W and Q. A complement of W is
    the graph {(T y, y)} of a unique n1 x n2 matrix T, in the adapted basis,
    and g maps it into itself exactly when g_W T y + c_g y = T g_Q y for all
    y. So V splits iff c_g = T g_Q - g_W T has a solution T for every
    generator g: one equation per g and entry (a, b), in the unknowns
    T[a, j] at index a n2 + j, with c_g[a, b] in the last column. The
    system is inconsistent exactly when that column holds a pivot of its
    echelon, a row (0 ... 0 | 1). Each equation is taken times the product
    of the three blocks' `den`, in integers: g_W by its rows, g_Q by its
    columns and c_g by its rows, from the integer views."""
    n1, n2 = sub.dim, quot.dim
    rhs = n1 * n2
    equations = []
    for g, cg in corner.items():
        gw, gq = sub.action[g], quot.action[g]
        w_rows, q_cols, c_rows = gw.int_rows, gq.int_cols, cg.int_rows
        w_scale, q_scale, c_scale = gq.den * cg.den, gw.den * cg.den, gw.den * gq.den
        for a in range(n1):
            c_row = dict(c_rows[a])
            for b in range(n2):
                eq: IntRow = {a * n2 + j: q_scale * v for j, v in q_cols[b]}
                for i, v in w_rows[a]:
                    k = i * n2 + b
                    eq[k] = eq[k] - w_scale * v if k in eq else -w_scale * v
                if b in c_row:
                    eq[rhs] = c_scale * c_row[b]
                if w := int_row(eq):
                    equations.append(w)
    return rhs not in _echelon(rhs + 1, equations).reduced()


def _composition_span(m: "ModuleData", w: Subspace) -> int | None:
    """The word span dimension from the proper nonzero invariant subspace
    w, or None when a premise of the lemma below does not hold.

    The lemma. Let W be a proper nonzero invariant subspace of V, Q = V/W,
    n1 = dim W, n2 = dim Q, and A the span of the words, an algebra with 1.
    Suppose W and Q are absolutely irreducible and n1 != n2. Then dim A =
    n1^2 + n2^2 if V = W (+) Q as modules, and n1^2 + n2^2 + n1 n2 if not.

    Proof. In a basis adapted to W each a in A is [[a_W, c_a], [0, a_Q]], and
    rho(a) = (a_W, a_Q) is an algebra map into End(W) x End(Q). Its image B
    maps onto End(W) and onto End(Q), by Burnside's theorem for the
    absolutely irreducible W and Q. The elements of B with Q-part 0 form an
    ideal, whose W-parts form an ideal of End(W), so 0 or End(W). If 0, then
    B -> End(Q) is injective as well as onto, so B is the simple algebra
    End(Q), and its map onto End(W) != 0 is injective too: n1^2 = n2^2,
    which n1 != n2 excludes. So B holds End(W) x 0, likewise 0 x End(Q), and
    B = End(W) x End(Q). The kernel J of rho is the set of [[0, c], [0, 0]]
    in A. For a, a' in A, a j a' has corner a_W c a'_Q, and (a_W, a'_Q)
    ranges over End(W) x End(Q), so the corners of J form a subspace of the
    n1 x n2 matrices closed under c -> X c Y for all X and Y: 0 or all of
    them, since from one c != 0 the products E_ij c E_kl give every matrix
    unit. So dim A = n1^2 + n2^2 + (0 or n1 n2). If V = W (+) W' with W'
    invariant, every a is block diagonal in a basis adapted to W and W', so
    J = 0. If J = 0, rho is injective; take e in A with rho(e) = (0, 1).
    Then e^2 = e, a e = e a e for every a (same image under rho), so e V is
    invariant; e W = 0, e v = v for v in e V, so W n e V = 0, and e acts as
    1 on Q, so W + e V = V: V = W (+) e V splits.

    The premises are checked exactly: Norton's criterion on W and on Q
    (`_norton`, which proves absolute irreducibility), n1 != n2, and the
    splitting by `_splits`. A factor Norton cannot certify, equal
    dimensions, and three or more composition factors (some factor is
    then reducible, and Norton certifies no reducible module) return
    None."""
    n1, n2 = w.dim, m.dim - w.dim
    if n1 == n2:
        return None
    sub_action, quot_action, corner = _factors(m, w)
    sub = replace(m, dim=n1, action=sub_action)
    quot = replace(m, dim=n2, action=quot_action)
    if not (_norton(sub) and _norton(quot)):
        return None
    span = n1 * n1 + n2 * n2
    return span if _splits(sub, quot, corner) else span + n1 * n2


def burnside_irreducible(m: "ModuleData") -> IrreducibilityReport:
    """Irreducibility test with witness search.

    Absolutely irreducible iff the word span has dimension dim^2; otherwise
    NotIrreducible, with a spin-verified proper invariant subspace as witness
    whenever one of the candidate seeds finds one. Three certificates, tried
    in turn: Norton's criterion proves the first case (NORTON); when it
    fails, the witness search runs, and a witness whose two factors pass
    Norton's criterion and differ in dimension gives the span by the lemma of
    `_composition_span` (COMPOSITION); every other case is decided by the
    exact word span (WORD_SPAN).
    """
    n = m.dim
    if _norton(m):
        return IrreducibilityReport(n * n, ABSOLUTELY_IRREDUCIBLE, None, NORTON)
    witness = None
    for seed in _witness_candidates(m):
        generated = spin(seed, m)
        if 0 < generated.dim < n:
            witness = generated
            break
    if witness is not None:
        span_dim = _composition_span(m, witness)
        if span_dim is not None:
            return IrreducibilityReport(span_dim, NOT_IRREDUCIBLE, witness, COMPOSITION)
    span_dim = _word_span(m)
    verdict = ABSOLUTELY_IRREDUCIBLE if span_dim == n * n else NOT_IRREDUCIBLE
    return IrreducibilityReport(span_dim, verdict, witness, WORD_SPAN)


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
    lowering_kernels = [kernel(m.action[f"e{i}m"]) for i in (0, 1)]
    for j in range(d // 2 + 1):
        # (i)-(ii) map U_j to U_(d-j) by e0p, (iii)-(iv) U_(d-j) to U_j by e1p
        for i, src, dst in ((0, j, d - j), (1, d - j, j)):
            ep = m.action[f"e{i}p"]
            u_src = wd.spaces[src]
            img = image(ep.power(d - 2 * j), u_src)
            log.condition(
                f"iso(e{i}p^{d - 2 * j}: U{src} -> U{dst})",
                anchor,
                img.dim == u_src.dim and img == wd.spaces[dst],
                f"image dim {img.dim}, expected bijection onto weight space {dst}",
            )
            ker_power = subspace_intersect(kernel(ep.power(d - 2 * j + 1)), u_src)
            ker_lower = subspace_intersect(lowering_kernels[i], u_src)
            log.condition(
                f"kernel-match(e{i}p^{d - 2 * j + 1}, e{i}m on U{src})",
                anchor,
                ker_power == ker_lower,
                f"kernel dims {ker_power.dim} vs {ker_lower.dim} "
                f"on weight space {src}",
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
        reach = image(ep.power(d - 2 * j), spaces[j]).dim
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
