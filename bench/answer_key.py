"""The benchmark's answer key, written without qaffine.

Every expected outcome is derived here from the mathematics of the inputs,
never from qaffine's own comparators or verdicts:

* irreducibility of a tensor product of evaluation modules comes from the
  q-string criterion of Chari and Pressley (1991, "Quantum affine
  algebras"): V_m(a) (x) V_n(b) is reducible exactly when
  b/a = q^(+-(m + n - 2p + 2)) for some 1 <= p <= min(m, n), and a product
  of several evaluation modules is irreducible exactly when every pair is;
* the type signs of a (twisted) tensor product follow from the factor signs;
* output files are compared as JSON strings, entry by entry;
* a corrupted file changes one entry of a K-type generator, which provably
  breaks the relation K Kinv = 1 (below), so `verify` must exit 3.
"""

from __future__ import annotations

import copy
import json
import random
import re
from fractions import Fraction
from typing import Sequence

EXIT_OK = 0
EXIT_RELATION = 3
EXIT_IRREDUCIBILITY = 4
EXTENSION_CHECKS = 71

NOT_IRREDUCIBLE = "NotIrreducible"

# Generators that come in inverse pairs, per presentation. Changing one entry
# of K to K + c E_ij (c != 0) turns K Kinv into 1 + c E_ij Kinv, whose row i
# is c times row j of the invertible Kinv, hence nonzero: the unit relation
# fails. The same holds with the roles of K and Kinv exchanged.
K_GENERATORS = {
    "affine_full": ("K0", "K0inv", "K1", "K1inv"),
    "affine_borel": ("K0", "K0inv", "K1", "K1inv"),
    "ugeq0": ("K", "Kinv"),
    "finite": ("k", "kinv"),
}

Factor = tuple[int, int, Fraction]  # (diameter d, sign eps, parameter a)


def is_q_power(ratio: Fraction, q: Fraction) -> bool:
    """True when ratio = +-q^k for some integer k (|q| != 0, 1)."""
    r, base = abs(ratio), abs(q)
    if r == 0:
        return False
    if base < 1:
        base = 1 / base
    if r < 1:
        r = 1 / r
    while r >= base:
        r /= base
    return r == 1


def pair_reducible(m: int, a: Fraction, n: int, b: Fraction, q: Fraction) -> bool:
    """Chari-Pressley: V_m(a) (x) V_n(b) is reducible iff the q-strings of
    the two factors are not in general position."""
    ratio = b / a
    for p in range(1, min(m, n) + 1):
        e = m + n - 2 * p + 2
        if ratio == q**e or ratio == q**-e:
            return True
    return False


def tensor_irreducible(factors: Sequence[Factor], q: Fraction) -> bool:
    """Expected verdict for a tensor product of evaluation modules.

    The criterion is stated for factors of sign +1. A factor of sign -1 is a
    sign twist, which can move the critical ratios to -q^k; such products
    are only decided when no ratio is +-q^k at all.
    """
    pairs = [
        (f, g) for i, f in enumerate(factors) for g in factors[i + 1:]
    ]
    if all(f[1] == 1 for f in factors):
        return not any(pair_reducible(f[0], f[2], g[0], g[2], q) for f, g in pairs)
    if any(is_q_power(g[2] / f[2], q) for f, g in pairs):
        raise ValueError("the q-string criterion does not decide these signs")
    return True


def tensor_type(factors: Sequence[Factor], twist: tuple[int, int]) -> tuple[int, int]:
    """Type signs (eps0, eps1) of a tensor product twisted by (s0, s1).

    eval(d, eps, a) has K0 = eps q^(d-2i) and K1 = eps q^(2i-d), so its type
    is (eps, eps); K_i acts diagonally on a tensor product, so signs
    multiply; the twist scales K0 by s0 and K1 by s1.
    """
    sign = 1
    for _, eps, _ in factors:
        sign *= eps
    return sign * twist[0], sign * twist[1]


def action_mismatches(expected: dict, actual: dict) -> list[str]:
    """Entries of two module documents' action blocks that differ as strings."""
    out = []
    exp, act = expected["action"], actual["action"]
    if list(exp) != list(act):
        return [f"generators {list(act)} != {list(exp)}"]
    for gen, rows in exp.items():
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                got = act[gen][i][j] if i < len(act[gen]) and j < len(act[gen][i]) else None
                if got != value:
                    out.append(f"{gen}[{i}][{j}] = {got!r}, expected {value!r}")
    return out


def trace_problems(trace_doc: dict) -> list[str]:
    """An extension trace must list exactly 71 checks, all passing."""
    checks = trace_doc.get("checks", [])
    problems = []
    if len(checks) != EXTENSION_CHECKS:
        problems.append(f"{len(checks)} checks in the trace, expected {EXTENSION_CHECKS}")
    failed = [c.get("name") for c in checks if c.get("pass") is not True]
    if failed:
        problems.append(f"failed checks {failed}")
    return problems


_WITNESS = re.compile(r"proper invariant subspace of dim (\d+)")


def reducible_report_problems(report_doc: dict, dim: int) -> list[str]:
    """`analyze --report` on a reducible module: verdict NotIrreducible and a
    witness subspace of dimension strictly between 0 and dim."""
    problems = []
    verdict = report_doc.get("summary", {}).get("verdict")
    if verdict != NOT_IRREDUCIBLE:
        problems.append(f"verdict {verdict!r}, expected {NOT_IRREDUCIBLE!r}")
    details = [
        c.get("detail", "") for c in report_doc.get("checks", [])
        if c.get("name") == "irreducibility"
    ]
    found = [int(m.group(1)) for d in details for m in [_WITNESS.search(d)] if m]
    if not found:
        problems.append("no invariant-subspace witness reported")
    elif not 0 < found[0] < dim:
        problems.append(f"witness dimension {found[0]} is not proper in dim {dim}")
    return problems


def corrupt(text: str, rng: random.Random) -> tuple[str, str]:
    """A copy of a module file with one entry of a K-type generator changed;
    returns the new text and a description of the change."""
    doc = json.loads(text)
    bad = copy.deepcopy(doc)
    gen = rng.choice(K_GENERATORS[doc["presentation"]])
    i, j = rng.randrange(doc["dim"]), rng.randrange(doc["dim"])
    delta = rng.choice((Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)))
    old = Fraction(bad["action"][gen][i][j])
    bad["action"][gen][i][j] = str(old + delta)
    return json.dumps(bad, indent=2) + "\n", f"{gen}[{i}][{j}] += {delta}"
