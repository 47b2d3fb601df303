"""Seeded inputs, set-up and items of the three benchmark workloads.

An item is one closed-loop unit of work: it drives qaffine's CLI verbs (and,
for `catalogue`, its factory and file API) in this process and returns the
list of ways its outputs disagree with the answer key; an empty list is a
pass. The program only ever sees the generated module files and arguments.

* roundtrip: irreducible tensor products of evaluation modules at dims 4, 8
  and 12, restricted with `restrict` and rebuilt with `extend --trace`.
* reducible: tensor products at exact q-string ratios; `analyze` must find
  them reducible with a witness and `extend` of their U>=0 restriction must
  exit 4.
* catalogue: factory-built modules of dim 2-27, written, read back,
  re-serialized, checked with `verify`, and a corrupted copy that must fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from qaffine import cli, factory, modfile
from qaffine.scalars import QParam

import answer_key as key

Q_VALUES = (Fraction(2), Fraction(3, 2))

# Evaluation parameters and restriction types of bounded height. Draws whose
# pairwise ratios are +-q^k are rejected, so irreducible inputs never sit on a
# q-string, whatever their signs.
EVAL_PARAMS = tuple(
    Fraction(x) for x in ("1", "3", "5", "7", "1/3", "1/5", "3/5", "5/3", "7/3")
)
ALPHAS = tuple(
    Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3", "2/3", "-3/2")
)
SIGNS = (1, -1)

# Roundtrip shapes (dims 4, 4, 8, 8, 12); None draws the parameters. The
# dim-8 and dim-12 tensors of the ROADMAP baseline keep its parameters
# (1, 3, 9) and (1, 7): the dim-12 item is most of a pass, and parameter
# draws there moved largest_s by more than the machine's noise did.
ROUNDTRIP_SHAPES = (
    ((1, 1), None), ((1, 1), None), ((1, 1, 1), (1, 3, 9)), ((1, 3), None),
    ((2, 3), (1, 7)),
)
# (m, n, e): V_m(1) (x) V_n(q^e) with e = m + n - 2p + 2, 1 <= p <= min(m, n)
REDUCIBLE_SHAPES = ((1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 2, 2))  # dims 4, 6, 8, 9
# The largest catalogue tensor per q. At q = 3/2 the dim-27 eval(2,.)^(x)3
# alone takes 12 s, in `verify`'s weight ladder (rational_roots): twice the
# rest of a pass. It joins once that cost is gone.
CATALOGUE_LARGEST = {Fraction(2): (2, 2, 2), Fraction(3, 2): (1, 2, 2)}  # 27, 18


@dataclass(frozen=True)
class Item:
    """One unit of work; `spec` holds the workload-specific parameters."""

    workload: str
    index: int
    label: str
    q: Fraction
    dim: int
    spec: tuple


def _dim(factors) -> int:
    out = 1
    for d, _, _ in factors:
        out *= d + 1
    return out


def _label(factors) -> str:
    return " (x) ".join(f"eval({d},{eps},{a})" for d, eps, a in factors)


def _irreducible_factors(rng: random.Random, shape, q: Fraction, params=None):
    """Factors of the given diameters, with drawn signs, whose tensor product
    the q-string criterion calls irreducible; the evaluation parameters are
    drawn from EVAL_PARAMS unless given."""
    while True:
        drawn = params or rng.sample(EVAL_PARAMS, len(shape))
        factors = tuple((d, rng.choice(SIGNS), a) for d, a in zip(shape, drawn))
        try:
            if key.tensor_irreducible(factors, q):
                return factors
        except ValueError:
            pass
        if params:
            raise ValueError(f"{_label(factors)} is not irreducible at q = {q}")


def _reducible_factors(m: int, n: int, e: int, q: Fraction):
    """eval(m, 1, 1) (x) eval(n, 1, q^e). Only the twist, alpha and signs are
    drawn: a drawn base parameter moved item_p50_s by more than the noise."""
    factors = ((m, 1, Fraction(1)), (n, 1, q**e))
    if key.tensor_irreducible(factors, q):
        raise RuntimeError(f"{factors} is not on a q-string")
    return factors


def generate(workload: str, seed: int) -> list[Item]:
    """The workload's item list; the same seed gives the same items."""
    rng = random.Random(f"{workload}:{seed}")
    items: list[Item] = []

    def add(label, q, dim, spec):
        items.append(Item(workload, len(items), f"{label} q={q}", q, dim, spec))

    for q in Q_VALUES:
        if workload == "roundtrip":
            for shape, params in ROUNDTRIP_SHAPES:
                factors = _irreducible_factors(
                    rng, shape, q, params and tuple(Fraction(a) for a in params))
                twist = (rng.choice(SIGNS), rng.choice(SIGNS))
                alpha = rng.choice(ALPHAS)
                add(f"{_label(factors)} alpha={alpha}", q, _dim(factors),
                    (factors, twist, alpha))
        elif workload == "reducible":
            for m, n, e in REDUCIBLE_SHAPES:
                factors = _reducible_factors(m, n, e, q)
                twist = (rng.choice(SIGNS), rng.choice(SIGNS))
                alpha = rng.choice(ALPHAS)
                signs = (rng.choice(SIGNS), rng.choice(SIGNS))
                add(_label(factors), q, _dim(factors), (factors, twist, alpha, signs))
        elif workload == "catalogue":
            for label, dim, spec in _catalogue_specs(rng, q):
                add(label, q, dim, spec + (rng.randrange(2**32),))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return items


def _catalogue_specs(rng: random.Random, q: Fraction):
    """(label, dim, construction) triples covering every factory constructor."""
    specs = []
    for d in (1, 2, 4, 6):
        f = (d, rng.choice(SIGNS), rng.choice(EVAL_PARAMS))
        specs.append((_label([f]), d + 1, ("eval", (f,))))
    for d in (1, 3, 5):
        eps = rng.choice(SIGNS)
        specs.append((f"finite({d},{eps})", d + 1, ("finite", d, eps)))
    for shape in ((1, 2), (2, 3), (1, 1, 2), CATALOGUE_LARGEST[q]):
        f = _irreducible_factors(rng, shape, q)
        specs.append((_label(f), _dim(f), ("tensor", f)))
    f = _irreducible_factors(rng, (1, 3), q)
    twist = (rng.choice(SIGNS), rng.choice(SIGNS))
    specs.append((f"twist({_label(f)}, {twist})", _dim(f), ("twist", f, twist)))
    f = _irreducible_factors(rng, (2, 3), q)
    specs.append((f"borel({_label(f)})", _dim(f), ("borel", f)))
    f = _irreducible_factors(rng, (2, 2), q)
    alpha = rng.choice(ALPHAS)
    specs.append((f"ugeq0({_label(f)}, {alpha})", _dim(f), ("ugeq0", f, alpha)))
    return specs


# -- building modules through the factory API --------------------------------


def build_tensor(factors, q: Fraction, twist=(1, 1)):
    qp = QParam(q)
    mods = [factory.evaluation_module(factory.EvalParams(d, eps, a), qp)
            for d, eps, a in factors]
    module = mods[0]
    for other in mods[1:]:
        module = factory.tensor_product(module, other)
    if twist != (1, 1):
        module = factory.twist_full(module, *twist)
    return module


def _catalogue_module(q: Fraction, spec: tuple):
    what = spec[0]
    if what == "finite":
        return factory.finite_module(spec[1], spec[2], QParam(q))
    if what in ("eval", "tensor"):
        return build_tensor(spec[1], q)
    if what == "twist":
        return build_tensor(spec[1], q, spec[2])
    if what == "borel":
        return factory.restrict_to_borel(build_tensor(spec[1], q))
    if what == "ugeq0":
        return factory.restrict_to_ugeq0(build_tensor(spec[1], q), spec[2])
    raise ValueError(f"unknown catalogue construction {what!r}")


_PRESENTATION = {"finite": "finite", "eval": "affine_full", "tensor": "affine_full",
                 "twist": "affine_full", "borel": "affine_borel", "ugeq0": "ugeq0"}


# -- running the CLI in-process ----------------------------------------------


def run_cli(argv: list[str]) -> int:
    """qaffine's `main` with its console output discarded; argparse errors
    arrive as SystemExit and are returned as their exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2


def _expect_exit(what: str, got: int, expected: int) -> list[str]:
    return [] if got == expected else [f"{what} exited {got}, expected {expected}"]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


# -- the workloads ------------------------------------------------------------


class Workload:
    """Set-up (input files) and item execution for one workload."""

    def __init__(self, name: str, workdir: Path):
        self.name = name
        self.workdir = workdir
        self.inputs: dict[int, Path] = {}
        self.restrictions: dict[int, Path] = {}
        self.input_docs: dict[int, dict] = {}

    def prepare(self, items: list[Item]) -> None:
        """Build and write the input files the items read."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for item in items:
            if self.name == "roundtrip":
                factors, twist, _ = item.spec
                path = self.workdir / f"in-{item.index}.json"
                modfile.write_module(build_tensor(factors, item.q, twist), path)
                self.inputs[item.index] = path
                self.input_docs[item.index] = _read_json(path)
            elif self.name == "reducible":
                factors, twist, alpha, _ = item.spec
                module = build_tensor(factors, item.q, twist)
                full = self.workdir / f"full-{item.index}.json"
                part = self.workdir / f"ugeq0-{item.index}.json"
                modfile.write_module(module, full)
                modfile.write_module(factory.restrict_to_ugeq0(module, alpha), part)
                self.inputs[item.index] = full
                self.restrictions[item.index] = part

    def run(self, item: Item) -> list[str]:
        return getattr(self, f"_{self.name}")(item)

    def _path(self, item: Item, stem: str) -> Path:
        path = self.workdir / f"{stem}-{item.index}.json"
        path.unlink(missing_ok=True)
        return path

    def _roundtrip(self, item: Item) -> list[str]:
        factors, twist, alpha = item.spec
        eps0, eps1 = key.tensor_type(factors, twist)
        qs = str(item.q)
        restricted, out, trace = (self._path(item, s) for s in ("r", "out", "trace"))
        problems = _expect_exit("restrict", run_cli(
            ["--q", qs, "restrict", str(self.inputs[item.index]),
             f"--alpha={alpha}", "-o", str(restricted)]), key.EXIT_OK)
        if problems:
            return problems
        problems = _expect_exit("extend", run_cli(
            ["--q", qs, "extend", str(restricted), f"--eps0={eps0}",
             f"--eps1={eps1}", "--trace", str(trace), "-o", str(out)]), key.EXIT_OK)
        if problems:
            return problems
        mismatches = key.action_mismatches(self.input_docs[item.index], _read_json(out))
        if mismatches:
            problems.append(f"roundtrip mismatch at {len(mismatches)} entries, "
                            f"first {mismatches[0]}")
        return problems + key.trace_problems(_read_json(trace))

    def _reducible(self, item: Item) -> list[str]:
        _, _, _, (eps0, eps1) = item.spec
        qs = str(item.q)
        report, out = self._path(item, "report"), self._path(item, "x")
        problems = _expect_exit("analyze", run_cli(
            ["--q", qs, "analyze", str(self.inputs[item.index]),
             "--report", str(report)]), key.EXIT_OK)
        if not problems:
            problems += key.reducible_report_problems(_read_json(report), item.dim)
        problems += _expect_exit("extend", run_cli(
            ["--q", qs, "extend", str(self.restrictions[item.index]),
             f"--eps0={eps0}", f"--eps1={eps1}", "-o", str(out)]),
            key.EXIT_IRREDUCIBILITY)
        if out.exists():
            problems.append("extend wrote a module for a reducible input")
        return problems

    def _catalogue(self, item: Item) -> list[str]:
        spec, corruption_seed = item.spec[:-1], item.spec[-1]
        qs = str(item.q)
        path, again, bad = (self._path(item, s) for s in ("cat", "again", "bad"))
        modfile.write_module(_catalogue_module(item.q, spec), path)
        text = path.read_text()
        doc = json.loads(text)
        problems = []
        if (doc["presentation"], doc["dim"]) != (_PRESENTATION[spec[0]], item.dim):
            problems.append(f"wrote a {doc['presentation']} module of dim {doc['dim']}")
        modfile.write_module(modfile.read_module(path, QParam(item.q)), again)
        if again.read_bytes() != path.read_bytes():
            problems.append("file does not re-serialize byte for byte")
        problems += _expect_exit("verify", run_cli(["--q", qs, "verify", str(path)]),
                                 key.EXIT_OK)
        bad_text, change = key.corrupt(text, random.Random(corruption_seed))
        bad.write_text(bad_text)
        problems += _expect_exit(f"verify of a copy with {change}", run_cli(
            ["--q", qs, "verify", str(bad)]), key.EXIT_RELATION)
        return problems


def warmup_items(workload: str) -> list[Item]:
    """One small item per q, run untimed during set-up so that lazy
    initialisation (imports, the relation cache) is paid before timing."""
    items = []
    for q in Q_VALUES:
        if workload == "roundtrip":
            f = ((1, 1, Fraction(1)), (1, 1, Fraction(3)))
            spec = (f, (1, 1), Fraction(1))
        elif workload == "reducible":
            f = ((1, 1, Fraction(1)), (1, 1, q**2))
            spec = (f, (1, 1), Fraction(1), (1, 1))
        else:
            f = ((1, 1, Fraction(1)),)
            spec = ("eval", f, 0)
        items.append(Item(workload, 1000 + len(items), f"warm-up q={q}", q,
                          _dim(f), spec))
    return items
