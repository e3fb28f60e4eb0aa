"""Output checks: failure accounting, replay, and an independent oracle.

* Trials are read back from the campaign JSONL, where the lines of one trial
  are consecutive and carry the trial's seed.
* A replayed trial (``run_single`` with the fields its report carries) must
  reproduce its lines byte for byte.
* Monotonicity gaps and Pinsker right-hand sides of full-rank trials are
  recomputed from the trial's seeded inputs by dense ``scipy.linalg``
  functional calculus, independent of the spectral formula the program uses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class Trial:
    seed: int
    lines: tuple[str, ...]


def trials_of(text: str) -> list[Trial]:
    """Group JSONL lines into trials: consecutive lines sharing one seed."""
    out: list[Trial] = []
    seed, lines = None, []
    for line in text.splitlines():
        this = json.loads(line)["seed"]
        if lines and this != seed:
            out.append(Trial(seed, tuple(lines)))
            lines = []
        seed = this
        lines.append(line)
    if lines:
        out.append(Trial(seed, tuple(lines)))
    return out


def tally(text: str) -> tuple[int, int, int]:
    """(failed trials, divergent reports, reports) in one cell's JSONL.

    A trial fails when any of its reports has ``passed = false``.  Divergent
    reports (``details.divergent`` set, or ``divergent=1`` in the notes, as
    the vacuous Pinsker report has it) are not failures.
    """
    failed = divergent = reports = 0
    for trial in trials_of(text):
        bad = False
        for line in trial.lines:
            rep = json.loads(line)
            reports += 1
            if rep["details"].get("divergent") or "divergent=1" in rep["notes"]:
                divergent += 1
            elif not rep["passed"]:
                bad = True
        failed += bad
    return failed, divergent, reports


def replay_mismatches(campaign, cell, rank_policy: str, trials: list[Trial]) -> list[str]:
    """Labels of the given trials whose replay differs from the campaign lines."""
    bad = []
    for trial in trials:
        reports = campaign.run_single(cell.inequality, cell.function, cell.dims,
                                      cell.beta, trial.seed, rank_policy)
        if tuple(r.to_json() for r in reports) != trial.lines:
            bad.append(f"{cell.label} seed={trial.seed}")
    return bad


def first_raising_trial(campaign, cell, rank_policy: str, root_seed: int, trials: int):
    """Replay a cell trial by trial; the first trial that raises, or None."""
    for t in range(trials):
        seed = campaign.trial_seed(root_seed, cell.inequality, cell.dims,
                                   cell.function, cell.beta, t)
        try:
            campaign.run_single(cell.inequality, cell.function, cell.dims,
                                cell.beta, seed, rank_policy)
        except Exception as exc:  # noqa: BLE001 - recording which trial raises
            return {"trial": t, "seed": seed, "error": type(exc).__name__,
                    "message": str(exc)[:200]}
    return None


# ----------------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------------

ORACLE_FAMILIES = ("monotonicity", "pinsker")


def oracle_entropy(fid: str, k, rho, sigma) -> float | None:
    """S_f^K(rho || sigma) by dense functional calculus; None if f is not covered.

    neg_log: Tr(K*K rho log rho) - Tr(K rho K* log sigma).
    f_p:     (Tr(K rho K*) - Tr(K* sigma^p K rho^{1-p})) / (p(1-p)).
    """
    kh = k.conj().T
    if fid == "neg_log":
        val = np.trace(kh @ k @ rho @ sla.logm(rho)) - np.trace(k @ rho @ kh @ sla.logm(sigma))
        return float(val.real)
    head, _, tail = fid.partition(":")
    if head == "f_p" and 0.0 < float(tail) < 1.0:
        p = float(tail)
        val = (np.trace(k @ rho @ kh)
               - np.trace(kh @ sla.fractional_matrix_power(sigma, p) @ k
                          @ sla.fractional_matrix_power(rho, 1.0 - p)))
        return float(val.real) / (p * (1.0 - p))
    return None


def _mat(x) -> np.ndarray:
    return np.asarray(getattr(x, "mat", x), dtype=np.complex128)


def _draw_state(linalg, rng, dim: int, rank_policy: str):
    """The campaign's state draw; None (after drawing) for a rank-deficient state."""
    if rank_policy == "mixed" and dim > 1 and rng.random() < 0.2:
        linalg.random_density(dim, rank=int(rng.integers(1, dim)), seed=rng)
        return None
    return _mat(linalg.random_density(dim, seed=rng))


def _reduce_first(m: np.ndarray, d0: int, d1: int) -> np.ndarray:
    return m.reshape(d0, d1, d0, d1).trace(axis1=1, axis2=3)


def oracle_value(linalg, cell, rank_policy: str, seed: int) -> float | None:
    """Monotonicity gap or Pinsker RHS of one trial, recomputed from its seed."""
    rng = np.random.default_rng(seed)
    dim = int(np.prod(cell.dims))
    rho = _draw_state(linalg, rng, dim, rank_policy)
    sigma = _draw_state(linalg, rng, dim, rank_policy)
    if cell.inequality == "monotonicity":
        d0, d1 = cell.dims
        k1 = _mat(linalg.random_contraction(d0, seed=rng))
        v = _mat(linalg.random_unitary(d1, seed=rng))
        if rho is None or sigma is None:
            return None
        full = oracle_entropy(cell.function, np.kron(k1, v), rho, sigma)
        if full is None:
            return None
        return full - oracle_entropy(cell.function, k1, _reduce_first(rho, d0, d1),
                                     _reduce_first(sigma, d0, d1))
    u = _mat(linalg.random_unitary(dim, seed=rng))
    if rho is None or sigma is None:
        return None
    return oracle_entropy(cell.function, u, rho, sigma)


def oracle_disagreements(linalg, cell, rank_policy: str, trials: list[Trial], limit: int):
    """(checked count, labels of trials whose reported value misses the oracle).

    Checks the first ``limit`` full-rank trials.
    """
    checked, bad = 0, []
    for trial in trials:
        if checked == limit:
            break
        want = oracle_value(linalg, cell, rank_policy, trial.seed)
        if want is None:
            continue
        got = json.loads(trial.lines[0])["rhs"]
        checked += 1
        if not isinstance(got, float) or not math.isclose(got, want, rel_tol=0.0,
                                                          abs_tol=ORACLE_TOL * max(1.0, abs(want))):
            bad.append(f"{cell.label} seed={trial.seed} reported={got!r} oracle={want!r}")
    return checked, bad
