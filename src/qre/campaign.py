"""Seeded verification campaigns over random instances.

Every trial is reproducible in isolation: its generator is seeded by a hash
of (root seed, inequality id, dims, function id, beta, trial index), and the
resulting integer is stored in the report, so a failing line can be replayed
with :func:`run_single` from the report fields alone.  Reports stream to
JSONL in a fixed loop order, which makes repeated runs byte-identical.

``FAMILIES`` is the one table of inequality families: each entry names its
check, its operands (drawn here through ``SAMPLERS``, loaded by ``qre verify``
through its loaders) and what the family needs.  A cell whose dims or ``f``
the family does not admit produces no report.

A cell draws its trials' operands in blocks: a trial only draws its random
numbers, from its own generator in the listed order (``h`` alone is
hermitized as drawn), and the block finishes them in one pass of stacked
calls that give the bits of one call per matrix: the Gram draws of each
shape make their states and decompose them, the Haar unitaries take one QR,
the contractions one batched norm, and each sweep builds its instances whole
(``equality._SWEEP_DRAWS``).  A block holds at most ``BLOCK_BYTES`` of state
matrices, so memory stays flat at large dims.

Each family's check then takes the whole block (``check_block``) as one
stacked kernel (``bounds.*_block``, ``equality.equality_*_block``) and returns
the list of its trials' outcomes, built whole.  When it raises a ``QREError``,
it has given no outcome, and each trial of a block of several is checked again
alone, so a divergent or failing trial stays in its own trial.
``run_single`` checks a trial as a block of its own, and stamps the outcome
of each trial that a campaign has checked in its block with the trial's seed
and context, so a campaign line and its replay are the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, equality
from .errors import DivergentEntropy, InvalidParameter, QREError
from .functions import OperatorConvexFunction, from_id, power_of
from .linalg import (
    DensityMatrix,
    FactorizedSpace,
    _complex,
    _contraction_numbers,
    _gram_states,
    _haar_unitaries,
    _normals,
    random_hermitian,
    rescale_contractions,
)
from .reports import BoundReport


@dataclass(frozen=True)
class CampaignConfig:
    """One verification campaign: inequality x function x dims x beta grid."""

    inequalities: tuple[str, ...]
    functions: tuple[str, ...] = ("neg_log",)
    dims: tuple[tuple[int, ...], ...] = ((2, 2),)
    betas: tuple[float, ...] = (0.5,)
    trials: int = 100
    seed: int = 0
    rank_policy: str = "full"
    output_path: str | None = None

    def __post_init__(self):
        for name in ("inequalities", "functions", "dims", "betas"):
            entries = getattr(self, name)
            if not entries:
                raise InvalidParameter(f"{name} must list at least one entry")
            if name == "functions":     # every function id resolves; compared by its name
                entries = tuple(from_id(fid).name for fid in entries)
            if any(e in entries[:i] for i, e in enumerate(entries)):
                raise InvalidParameter(f"{name} repeats an entry: {entries}")
        for name, value in (("trials", self.trials), ("seed", self.seed)):
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise InvalidParameter(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise InvalidParameter(f"trials must be >= 1, got {self.trials}")
        if any(not 0.0 < b < 1.0 for b in self.betas):
            raise InvalidParameter(f"betas must lie in (0,1): {self.betas}")
        if self.output_path == "":
            raise InvalidParameter("output path must not be empty")
        _check_names(self.inequalities, self.rank_policy)
        for dims in self.dims:      # every dims entry resolves before a report is written
            FactorizedSpace(dims)


def _check_names(inequalities, rank_policy: str):
    """Every inequality is a key of ``FAMILIES`` and the rank policy is full or mixed."""
    if rank_policy not in ("full", "mixed"):
        raise InvalidParameter(f"rank_policy must be full|mixed: {rank_policy}")
    if unknown := [i for i in inequalities if i not in FAMILIES]:
        raise InvalidParameter(f"unknown inequalities {unknown}; known: {sorted(FAMILIES)}")


def _split(v: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in v.split(",") if s.strip())


# config key -> (CampaignConfig field, parser of its value)
CONFIG_KEYS = {
    "inequalities": ("inequalities", _split),
    "functions": ("functions", _split),
    "dims": ("dims", lambda v: tuple(parse_dims(d) for d in _split(v))),
    "betas": ("betas", lambda v: tuple(float(b) for b in _split(v))),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "rank_policy": ("rank_policy", str),
    "output": ("output_path", str),
}


def parse_config(text: str) -> CampaignConfig:
    """Plain key = value lines; lists are comma separated, dims use '2x2x2'.

    The keys are those of ``CONFIG_KEYS``, each at most once; any other key is rejected.
    """
    kwargs: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameter(f"bad config line {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise InvalidParameter(f"unknown config key {key!r}; known: {', '.join(CONFIG_KEYS)}")
        name, parse = CONFIG_KEYS[key]
        if name in kwargs:
            raise InvalidParameter(f"config key {key!r} is given more than once")
        kwargs[name] = parse(val)
    if "inequalities" not in kwargs:
        raise InvalidParameter("config must list inequalities")
    return CampaignConfig(**kwargs)


def parse_dims(s: str) -> tuple[int, ...]:
    """'2x2x2' or '2,2,2': each factor ASCII digits, blanks around it allowed."""
    factors = [d.strip() for d in s.replace("x", ",").split(",")]
    if not all(d.isascii() and d.isdigit() for d in factors):
        raise InvalidParameter(f"bad dims {s!r}")
    return tuple(int(d) for d in factors)


def trial_seed(root: int, inequality: str, dims: tuple[int, ...],
               fid: str, beta: float, trial: int) -> int:
    key = f"{root}|{inequality}|{'x'.join(map(str, dims))}|{fid}|{beta!r}|{trial}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big") >> 1


class Requirement(NamedTuple):
    """A hypothesis a family's theorem places on ``f``."""

    text: str
    holds: Callable[[OperatorConvexFunction], bool]


def _f_p_in(lo: float, hi: float) -> Requirement:
    def holds(f):
        p = power_of(f)
        return p is not None and lo < p < hi
    return Requirement(f"f_p:<p> with p in ({lo:g}, {hi:g})", holds)


NORMALIZED_F = Requirement("a normalized f (f(1) = 0)", lambda f: f.normalized)
REGULAR_F = Requirement("a regular f (window constants)", lambda f: f.regular)


class Family(NamedTuple):
    """One inequality family: its check, the operands it takes and what it needs.

    ``check(f, space, beta, block)`` takes a block of trials' operand tuples,
    each drawn (campaign) or loaded (CLI) by name in the order ``operands``
    lists, and returns a list of one outcome per tuple, in order: a report or
    a list of them.  The list is built whole, so a check that raises has given
    no outcome.
    """

    check: Callable
    operands: tuple[str, ...]
    nfactors: int | None = None       # tensor factors it needs; None for any
    uses_f: bool = True
    uses_beta: bool = True
    mixed_rank: bool = False          # honours rank_policy = "mixed"
    requires: Requirement | None = None

    def admits(self, f: OperatorConvexFunction, dims: tuple[int, ...]) -> bool:
        """Whether the family checks ``f`` on a space of ``dims``; a cell it does not admit
        produces no report."""
        return (self.nfactors in (None, len(dims))
                and (self.requires is None or self.requires.holds(f)))


def _operator_ssa(variant):
    return Family(lambda f, space, beta, block:
                  bounds.verify_operator_ssa_block(f, *zip(*block), beta, variant, space),
                  ("rho", "sigma_ab"), nfactors=3, requires=REGULAR_F)


FAMILIES: dict[str, Family] = {
    "monotonicity": Family(
        lambda f, space, beta, block: bounds.verify_monotonicity_block(f, *zip(*block), space),
        ("rho", "sigma", "k1", "v"), nfactors=2, uses_beta=False, mixed_rank=True),
    "thm42": Family(
        lambda f, space, beta, block: bounds.verify_thm42_block(f, *zip(*block), beta, space),
        ("rho", "sigma", "k1", "v"), nfactors=2, requires=REGULAR_F),
    "monotonicity_bound": Family(
        lambda f, space, beta, block:
        bounds.verify_monotonicity_bound_block(f, *zip(*block), beta, space),
        ("rho", "sigma", "k1", "v"), nfactors=2, requires=REGULAR_F),
    "joint_convexity": Family(
        lambda f, space, beta, block: bounds.verify_joint_convexity_block(f, *zip(*block), beta),
        ("ensemble", "k"), requires=REGULAR_F),
    "ssa": Family(
        lambda f, space, beta, block: bounds.verify_ssa_block(*zip(*block), beta, space),
        ("rho",), nfactors=3, uses_f=False, mixed_rank=True),
    "operator_ssa_thm62": _operator_ssa("thm62"),
    "operator_ssa_thm63": _operator_ssa("thm63"),
    "operator_ssa_cor64": _operator_ssa("cor64"),
    "operator_ssa_cor65": _operator_ssa("cor65"),
    "pinsker": Family(
        lambda f, space, beta, block: bounds.pinsker_block(f, *zip(*block)),
        ("rho", "sigma", "u"), uses_beta=False, mixed_rank=True, requires=NORMALIZED_F),
    "classical_reduction": Family(
        lambda f, space, beta, block: bounds.classical_reduction_block(f, *zip(*block)),
        ("rho", "sigma"), uses_beta=False),
    "wyd_skew": Family(
        lambda f, space, beta, block: bounds.wyd_skew_block(f, *zip(*block)),
        ("rho", "h"), uses_beta=False, requires=_f_p_in(0.0, 1.0)),
    "wyd_joint_concavity": Family(
        lambda f, space, beta, block:
        bounds.verify_wyd_joint_concavity_block(power_of(f), *zip(*block), beta),
        ("ensemble", "k"), requires=_f_p_in(-1.0, 2.0)),
    "wyd_operator": Family(
        lambda f, space, beta, block:
        bounds.verify_wyd_operator_block(power_of(f), *zip(*block), beta, space),
        ("rho", "sigma_ab"), nfactors=3, requires=_f_p_in(0.0, 1.0)),
    "cauchy_schwarz": Family(
        lambda f, space, beta, block: bounds.verify_cauchy_schwarz_block(*zip(*block), beta, space),
        ("rho", "sigma_ab"), nfactors=3, uses_f=False),
    "lieb_ruskai": Family(
        lambda f, space, beta, block: bounds.lieb_ruskai_block(*zip(*block), space),
        ("x", "q"), nfactors=2, uses_f=False, uses_beta=False),
    "equality_monotonicity": Family(
        lambda f, space, beta, block: equality.equality_monotonicity_block(f, space, *zip(*block)),
        ("monotonicity_sweep",), nfactors=2, uses_beta=False),
    "equality_joint_convexity": Family(
        lambda f, space, beta, block:
        equality.equality_joint_convexity_block(f, space, *zip(*block)),
        ("joint_convexity_sweep",), uses_beta=False),
    "equality_operator_ssa": Family(
        lambda f, space, beta, block: equality.equality_operator_ssa_block(f, space, *zip(*block)),
        ("operator_ssa_sweep",), nfactors=3, uses_beta=False),
}


# Bytes of sampled state matrices one block of trials, and one stack of its
# Gram draws, holds: a whole 20-trial cell of a two-state family at d <= 8,
# three joint-convexity sweeps (18 states each) at d = 8, one trial at d = 64
# (whose draws are then finished one by one).  A block holds at least one trial.
BLOCK_BYTES = 64 * 1024


class _Draw(NamedTuple):
    """An operand whose arithmetic is pending: ``finish`` maps the ``z`` (drawn normals or a
    sweep's numbers) and ``arg`` of the draws of one ``key`` in a block to their values;
    ``nbytes`` counts the state matrices it makes."""

    finish: Callable
    z: object
    arg: object = None
    nbytes: int = 0
    key = property(lambda self: (self.finish, getattr(self.z, "shape", None)))


def _stacked(fn):
    """The ``finish`` of ``fn`` (of a stack of ``z`` and their args) in stacks of at most
    BLOCK_BYTES of square results: a trial at d = 64 finishes its states one by one."""
    def finish(zs, args):
        n = max(1, BLOCK_BYTES // (16 * zs[0].shape[-2] ** 2))
        return [x for j in range(0, len(zs), n) for x in fn(np.array(zs[j:j + n]), args[j:j + n])]
    return finish


_grams = _stacked(lambda z, _: DensityMatrix.stack(_gram_states(_complex(z))))
_scaled_grams = _stacked(lambda z, times: [m * t for m, t in zip(_gram_states(_complex(z)), times)])
_haars = _stacked(lambda z, _: _haar_unitaries(_complex(z)))
_contractions = _stacked(lambda z, norms: rescale_contractions(zip(_complex(z), norms)))


def _gram(z, times=None):
    """The normals ``z`` of g, of a sampled state g g*/Tr(g g*), decomposed (or, given ``times``,
    that matrix times the factor)."""
    return _Draw(_grams if times is None else _scaled_grams, z, times, 16 * len(z[0]) ** 2)


def _contraction(dim, rng, times=1.0):
    """The draw of a contraction whose norm is ``times`` that of ``random_contraction``'s
    (times 2 is exact, so X = 2K has the bits of K doubled)."""
    z, norm = _contraction_numbers(rng, dim)
    return _Draw(_contractions, z, norm * times)


def _sample_state(rng, space, policy):
    mixed = policy == "mixed" and space.dim > 1 and rng.random() < 0.2
    return _gram(_normals(rng, space.dim, int(rng.integers(1, space.dim)) if mixed else None))


def _sweep(numbers, build, states):
    """The sampler of a sweep's instance, built by ``build`` into states of ``states(space)``."""
    finish = lambda numbers, _: build(numbers)         # noqa: E731 - one key a sweep
    return lambda rng, space, policy: _Draw(finish, numbers(rng, space), None,
                                            sum(16 * d ** 2 for d in states(space)))


# operand name -> sampler(rng, space, policy); an ensemble is three weighted [p_j, rho_j, sigma_j]
SAMPLERS = {
    "rho": _sample_state,
    "sigma": _sample_state,
    "sigma_ab": lambda rng, space, policy: _gram(_normals(rng, space.subspace((0, 1)).dim)),
    "k1": lambda rng, space, policy: _contraction(space.dims[0], rng),
    "v": lambda rng, space, policy: _Draw(_haars, _normals(rng, space.dims[1])),
    "u": lambda rng, space, policy: _Draw(_haars, _normals(rng, space.dim)),
    "k": lambda rng, space, policy: _contraction(space.dim, rng),
    "h": lambda rng, space, policy: random_hermitian(space.dim, seed=rng),
    "ensemble": lambda rng, space, policy: [
        [float(p), _gram(_normals(rng, space.dim)), _gram(_normals(rng, space.dim))]
        for p in rng.dirichlet(np.ones(3))],
    "x": lambda rng, space, policy: _contraction(space.dim, rng, 2.0),
    "q": lambda rng, space, policy: _gram(_normals(rng, space.dim), space.dim),
    **{f"{name}_sweep": _sweep(*draw) for name, draw in equality._SWEEP_DRAWS.items()},
}


def _pending(block):
    """(container, index) of every pending draw in ``block``, a list of lists."""
    slots, lists = [], [block]
    for c in lists:
        for i, x in enumerate(c):
            if type(x) is list:
                lists.append(x)
            elif type(x) is _Draw:
                slots.append((c, i))
    return slots


def _finish(block):
    """Complete the pending draws of a block in place, each ``key``'s in one ``finish`` call:
    the Gram draws of one shape make states decomposed in stacks, and the sweeps their
    instances, whole."""
    groups: dict = {}
    for c, i in _pending(block):
        groups.setdefault(c[i].key, []).append((c, i))
    for group in groups.values():
        draws = [c[i] for c, i in group]
        values = draws[0].finish([d.z for d in draws], [d.arg for d in draws])
        for (c, i), value in zip(group, values):
            c[i] = value


def sample_blocks(family: Family, space: FactorizedSpace, seeds, rank_policy: str = "full"):
    """Blocks of the seeds' operands (each seed a seed or a generator), drawn in order.

    A trial only draws its random numbers, from its own generator; the block
    does all their arithmetic (``_finish``).  A block holds at most BLOCK_BYTES
    of sampled states, and at least one trial; every trial of a cell draws
    states of the same shapes, so a block closes when the next trial would not
    fit.  It is finished before it is yielded, and dropped here when the next
    block is asked for.  Rank is full unless the family honours mixed.
    """
    policy = rank_policy if family.mixed_rank else "full"
    seeds = list(seeds)
    block, nbytes = [], None
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        block.append([SAMPLERS[name](rng, space, policy) for name in family.operands])
        if nbytes is None:      # the bytes of a trial's states, the same for every trial
            nbytes = sum(c[i].nbytes for c, i in _pending(block))
        if (len(block) + 1) * nbytes > BLOCK_BYTES or k == len(seeds) - 1:
            _finish(block)
            yield block
            block = []


def check_block(family: Family, f, space: FactorizedSpace, beta: float, block) -> list:
    """Each trial's outcome in order: its report(s), or the DivergentEntropy it raises alone.

    When the family's check of a block of several trials raises a QREError,
    each trial is checked again alone, so the error stays in its own trial;
    any other error of a trial checked alone propagates.
    """
    try:
        return family.check(f, space, beta, block)
    except QREError as exc:
        if len(block) > 1:
            return [out for ops in block for out in check_block(family, f, space, beta, [ops])]
        if isinstance(exc, DivergentEntropy):
            return [exc]
        raise


def run_single(inequality: str, fid: str, dims: tuple[int, ...], beta: float,
               seed: int, rank_policy: str = "full", *, outcome=None) -> list[BoundReport]:
    """Replay one trial from the fields a campaign report carries: the block of one.

    Without ``outcome``, ``seed`` draws the trial and it is checked here; an
    unknown inequality or rank policy is InvalidParameter.  A campaign passes
    the ``check_block`` outcome of a trial it has checked in its block, and
    that outcome is only stamped with the trial's seed and context, as the
    replay stamps its own.
    """
    if outcome is None:
        _check_names((inequality,), rank_policy)
        family, space, f = FAMILIES[inequality], FactorizedSpace(dims), from_id(fid)
        if not family.admits(f, dims):
            return []
        block = next(sample_blocks(family, space, [seed], rank_policy))
        outcome, = check_block(family, f, space, beta, block)
    if isinstance(outcome, DivergentEntropy):
        outcome = bounds._report(inequality, 0.0, 0.0, True, details={"divergent": 1.0},
                                 notes=f"f={fid};divergent=1 ({outcome})")
    reports = [outcome] if isinstance(outcome, BoundReport) else outcome
    for rep in reports:
        rep.seed = seed
        rep.notes = _with_context(rep.notes, fid, dims, beta)
    return reports


def _with_context(notes, fid, dims, beta):
    parts = [f"dims={'x'.join(map(str, dims))}"]
    if "f=" not in notes:
        parts.append(f"f={fid}")
    if "beta=" not in notes:
        parts.append(f"beta={beta:g}")
    ctx = ";".join(parts)
    return f"{notes}|{ctx}" if notes else ctx


@dataclass
class CampaignSummary:
    """A campaign's counts: each inequality's in ``per_inequality``; the totals are over them."""

    trials: int = 0
    per_inequality: dict = field(default_factory=dict)
    failing: list = field(default_factory=list)

    reports = property(lambda self: sum(s["reports"] for s in self.per_inequality.values()))
    passes = property(lambda self: sum(s["passes"] for s in self.per_inequality.values()))
    divergent = property(lambda self: sum(s["divergent"] for s in self.per_inequality.values()))
    failures = property(lambda self: len(self.failing))
    worst_margin = property(lambda self: min(
        (s["worst_margin"] for s in self.per_inequality.values()), default=float("inf")))

    def line(self) -> str:
        return (f"trials={self.trials} reports={self.reports} passes={self.passes} "
                f"failures={self.failures} divergent={self.divergent} "
                f"worst_margin={self.worst_margin:.6g}")


def run_campaign(config: CampaignConfig, stream: io.TextIOBase | None = None) -> CampaignSummary:
    """Run every (inequality, dims, function, beta, trial) combination in fixed order."""
    summary = CampaignSummary()
    own = stream is None and config.output_path
    with open(config.output_path, "w") if own else contextlib.nullcontext(stream) as out:
        for ineq in config.inequalities:
            family = FAMILIES[ineq]
            stats = summary.per_inequality[ineq] = {
                "reports": 0, "passes": 0, "divergent": 0, "worst_margin": float("inf")}
            fids = config.functions if family.uses_f else config.functions[:1]
            betas = config.betas if family.uses_beta else config.betas[:1]
            for dims in config.dims:
                space = FactorizedSpace(dims)
                for fid in fids:
                    f = from_id(fid)
                    if not family.admits(f, dims):
                        continue
                    for beta in betas:
                        seeds = [trial_seed(config.seed, ineq, dims, fid, beta, t)
                                 for t in range(config.trials)]
                        seed_of = iter(seeds)
                        for block in sample_blocks(family, space, seeds, config.rank_policy):
                            for outcome in check_block(family, f, space, beta, block):
                                reports = run_single(ineq, fid, dims, beta, next(seed_of),
                                                     config.rank_policy, outcome=outcome)
                                summary.trials += 1
                                for rep in reports:
                                    _tally(stats, summary.failing, rep)
                                    if out is not None:
                                        out.write(rep.to_json() + "\n")
    return summary


def _tally(stats, failing, rep):
    """Count ``rep`` once, in its inequality's ``stats``; a failing one is listed in ``failing``."""
    stats["reports"] += 1
    if rep.details.get("divergent"):
        stats["divergent"] += 1
        return
    stats["worst_margin"] = min(stats["worst_margin"], rep.gap)
    if rep.passed:
        stats["passes"] += 1
    else:
        failing.append(f"{rep.inequality_id} seed={rep.seed} notes={rep.notes}")
