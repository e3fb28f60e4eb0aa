"""The benchmark's workloads: fixed grids of campaign cells.

A *cell* is one ``(inequality, dims, function, beta)`` combination that
``qre.campaign.run_campaign`` visits, run as one ``run_campaign`` call with
``TRIALS_PER_CELL`` trials.  The grids reproduce the traffic of
``scripts/run_verification_campaign.py`` with its defaults (every family,
``neg_log`` and ``f_p:0.5``, betas 0.25/0.5/0.75), split by dims.

The per-family table below is written out here rather than read from the
campaign's own registry, so that a later refactor of that registry cannot
silently change what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass

FUNCTIONS = ("neg_log", "f_p:0.5")
BETAS = (0.25, 0.5, 0.75)
TRIALS_PER_CELL = 20

# family -> (number of tensor factors it needs or None for any,
#            whether it sweeps beta, the functions it produces reports for).
# Beta-free families are visited at the first beta only; families that do
# not use f at the first function only; the wyd_* families produce reports
# only for the power function.
FAMILIES = {
    "cauchy_schwarz": (3, True, FUNCTIONS[:1]),
    "classical_reduction": (None, False, FUNCTIONS),
    "equality_joint_convexity": (None, False, FUNCTIONS),
    "equality_monotonicity": (2, False, FUNCTIONS),
    "equality_operator_ssa": (3, False, FUNCTIONS),
    "joint_convexity": (None, True, FUNCTIONS),
    "lieb_ruskai": (2, False, FUNCTIONS[:1]),
    "monotonicity": (2, False, FUNCTIONS),
    "monotonicity_bound": (2, True, FUNCTIONS),
    "operator_ssa_cor64": (3, True, FUNCTIONS),
    "operator_ssa_cor65": (3, True, FUNCTIONS),
    "operator_ssa_thm62": (3, True, FUNCTIONS),
    "operator_ssa_thm63": (3, True, FUNCTIONS),
    "pinsker": (None, False, FUNCTIONS),
    "ssa": (3, True, FUNCTIONS[:1]),
    "thm42": (2, True, FUNCTIONS),
    "wyd_joint_concavity": (None, True, FUNCTIONS[1:]),
    "wyd_operator": (3, True, FUNCTIONS[1:]),
    "wyd_skew": (None, False, FUNCTIONS[1:]),
}


@dataclass(frozen=True)
class Cell:
    inequality: str
    dims: tuple[int, ...]
    function: str
    beta: float

    @property
    def label(self) -> str:
        dims = "x".join(map(str, self.dims))
        return f"{self.inequality}|{dims}|{self.function}|{self.beta:g}"


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, ...]
    rank_policy: str
    families: tuple[str, ...]

    def cells(self) -> list[Cell]:
        """Cells in the order run_campaign visits them for the family list."""
        out = []
        for family in self.families:
            nfac, uses_beta, fids = FAMILIES[family]
            if nfac is not None and nfac != len(self.dims):
                continue
            betas = BETAS if uses_beta else BETAS[:1]
            out += [Cell(family, self.dims, fid, beta) for fid in fids for beta in betas]
        return out


# Why each workload exists is written down in README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("campaign-2x2", (2, 2), "full", tuple(sorted(FAMILIES))),
        Workload("campaign-2x2x2", (2, 2, 2), "mixed", tuple(sorted(FAMILIES))),
        Workload("campaign-8x8", (8, 8), "full",
                 ("monotonicity", "thm42", "monotonicity_bound", "pinsker")),
    )
}
