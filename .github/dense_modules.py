"""Write the dense modules of the CI steps into the working directory.

Each is a factory module conjugated by a seeded P = L U, so that no
generator is triangular:
  dense.json      eval(3,1,1) (x) eval(3,1,11) at q = 2 (dim 16)
  dense27.json    eval(2,1,1) (x) eval(2,1,3) (x) eval(2,1,5) at q = 3/2
  dense_t14.json  eval(1,1,1) (x) eval(1,1,4) at q = 2 (reducible, dim 4)
  dense_rt16.json eval(3,1,1) (x) eval(3,1,4) at q = 2 (reducible, dim 16)

Run with src on PYTHONPATH:  python .github/dense_modules.py
"""

import random
from dataclasses import replace

from qaffine import EvalParams, evaluation_module, qparam, tensor_product
from qaffine.linalg import Matrix
from qaffine.modfile import write_module


def conjugate(m):
    """m with each generator g acting as P^-1 g P, where L is unit lower and
    U unit upper triangular, their other entries drawn from {-1, 0, 1} by
    random.Random(1)."""
    rng, n = random.Random(1), m.dim
    lower = [[1 if i == j else rng.randint(-1, 1) if i > j else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-1, 1) if i < j else 0 for j in range(n)] for i in range(n)]
    p = Matrix.from_rows(lower) @ Matrix.from_rows(upper)
    p_inv = p.inverse()
    return replace(m, action={g: p_inv @ a @ p for g, a in m.action.items()})


def tensor(q, d, *points):
    """The tensor product of the evaluation modules eval(d, 1, a) at q."""
    factors = [evaluation_module(EvalParams(d, 1, a), q) for a in points]
    product = factors[0]
    for factor in factors[1:]:
        product = tensor_product(product, factor)
    return product


write_module(conjugate(tensor(qparam(2), 3, 1, 11)), "dense.json")
write_module(conjugate(tensor(qparam("3/2"), 2, 1, 3, 5)), "dense27.json")
write_module(conjugate(tensor(qparam(2), 1, 1, 4)), "dense_t14.json")
write_module(conjugate(tensor(qparam(2), 3, 1, 4)), "dense_rt16.json")
