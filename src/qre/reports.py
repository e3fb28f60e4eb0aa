"""Report records emitted by every inequality verification."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np


@dataclass(frozen=True)
class BoundConstants:
    """Constants entering one remainder bound at fixed (f, beta)."""

    alpha1: float
    alpha2: float
    alpha: float
    C: float
    c: float
    N: float
    M: float
    T_star: float
    boundary: bool = False   # no interior T*: gap <= 0 (T_MAX) or T* clipped to T_MIN

    def as_dict(self) -> dict:     # every field is a scalar: no deep copy as ``asdict`` makes
        return {f.name: (v if isinstance(v := getattr(self, f.name), bool) else float(v))
                for f in fields(self)}


@dataclass
class BoundReport:
    """One verified inequality instance.

    ``gap`` = rhs - lhs; ``passed`` means gap >= -tol at the tolerance the
    check declared.  ``details`` carries auxiliary margins (a superset field,
    stable under extension).
    """

    inequality_id: str
    lhs: float
    rhs: float
    gap: float
    passed: bool
    constants: BoundConstants | None = None
    inputs_digest: str = ""
    seed: int | None = None
    notes: str = ""
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "inequality_id": self.inequality_id,
            "lhs": _num(self.lhs),
            "rhs": _num(self.rhs),
            "gap": _num(self.gap),
            "passed": bool(self.passed),
            "constants": self.constants.as_dict() if self.constants else None,
            "inputs_digest": self.inputs_digest,
            "seed": self.seed,
            "notes": self.notes,
            "details": {k: _num(v) for k, v in sorted(self.details.items())},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _num(v):
    v = float(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def digest_inputs(*arrays) -> str:
    """Stable hex digest of the numerical inputs of one trial."""
    h = hashlib.sha256()
    for a in arrays:
        arr = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]
