"""Registry of operator convex functions with their integral-representation data.

Each registered function carries, besides its scalar evaluation, the
canonical representation

    f(x) = a*x - b + int_0^inf ( 1/(t+x) - t/(t^2+1) ) mu(t) dt

with a <= 0 and a nonnegative density ``mu``.  For every family used here the
density is a pure power ``mu(t) = kappa * t**q`` with q in [0, 1], which makes
the window-domination constants exact power laws in the window size.  The
transpose x -> x*f(1/x) maps the density to ``t * mu(1/t)`` (q -> 1-q); the
transposed functions drive the mirrored operator inequalities and are not
themselves representable in the display above, so they carry measure data
only.

scipy is needed only by ``loewner_quadrature`` (``qre repr check`` and the
integral-representation acceptance check), which imports ``quad`` on its
first call; importing this module, or running a campaign, loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameter, IrregularFunction

QUAD_T_LO = 1e-9
QUAD_T_HI = 1e9


@dataclass(frozen=True)
class OperatorConvexFunction:
    """Scalar data of one operator convex function on (0, inf)."""

    name: str
    eval_fn: Callable[[np.ndarray], np.ndarray]
    second_at_one: float
    at_zero: float              # limit f(0+); may be +inf
    recession: float            # limit f(x)/x as x -> inf; may be +inf
    loewner_a: float | None = None
    loewner_b: float | None = None
    mu_kappa: float | None = None   # density mu(t) = kappa * t**q
    mu_q: float | None = None
    normalized: bool = True     # f(1) = 0

    def __call__(self, x):
        return self.eval_fn(np.asarray(x, dtype=float))

    @property
    def regular(self) -> bool:
        return self.mu_kappa is not None

    @property
    def has_loewner_form(self) -> bool:
        return self.loewner_a is not None and self.regular

    @property
    def diverges_at_zero(self) -> bool:
        return not np.isfinite(self.at_zero)

    def mu_density(self, t):
        if not self.regular:
            raise IrregularFunction(f"{self.name} carries no Loewner measure")
        t = np.asarray(t, dtype=float)
        return self.mu_kappa * t ** self.mu_q

    def power_law_C(self) -> float:
        """Coefficient C with C_{T,beta} = C * T_L**q, i.e. sup of 1/mu on a left-anchored window."""
        if not self.regular:
            raise IrregularFunction(f"{self.name} carries no Loewner measure")
        return 1.0 / self.mu_kappa

    def power_law_c(self, beta: float) -> float:
        """Exponent c with C_{T,beta} <= C * T**(2c) (exact for power-law densities)."""
        q = self.mu_q
        if q is None:
            raise IrregularFunction(f"{self.name} carries no Loewner measure")
        return q / 2.0 if beta <= 0.5 else q * (1.0 - beta) / (2.0 * beta)

    def transpose(self) -> "OperatorConvexFunction":
        """The function x*f(1/x); measure density becomes t*mu(1/t)."""
        base = self

        def ev(x):
            x = np.asarray(x, dtype=float)
            return x * base.eval_fn(1.0 / x)

        return OperatorConvexFunction(
            name=f"{self.name}~",
            eval_fn=ev,
            second_at_one=self.second_at_one,
            at_zero=self.recession,
            recession=self.at_zero,
            loewner_a=None,
            loewner_b=None,
            mu_kappa=self.mu_kappa,
            mu_q=None if self.mu_q is None else 1.0 - self.mu_q,
            normalized=self.normalized,
        )


def make_neg_log() -> OperatorConvexFunction:
    """f(x) = -ln x: a = 0, b = 0, mu(t) = dt, f''(1) = 1."""
    return OperatorConvexFunction(
        name="neg_log",
        eval_fn=lambda x: -np.log(x),
        second_at_one=1.0,
        at_zero=math.inf,
        recession=0.0,
        loewner_a=0.0,
        loewner_b=0.0,
        mu_kappa=1.0,
        mu_q=0.0,
    )


def make_neg_power(p: float) -> OperatorConvexFunction:
    """Raw power f(x) = -x^p for p in (0,1): b = cos(p pi/2), mu(t) = sin(p pi)/pi * t^p.

    Not normalized (f(1) = -1); used for representation checks, not entropies.
    """
    if not 0.0 < p < 1.0:
        raise InvalidParameter(f"neg_power needs p in (0,1), got {p}")
    return OperatorConvexFunction(
        name=f"neg_power:{float(p)!r}",
        eval_fn=lambda x: -(x ** p),
        second_at_one=p * (1.0 - p),
        at_zero=0.0,
        recession=0.0,
        loewner_a=0.0,
        loewner_b=math.cos(p * math.pi / 2.0),
        mu_kappa=math.sin(p * math.pi) / math.pi,
        mu_q=p,
        normalized=False,
    )


def make_f_p(p: float) -> OperatorConvexFunction:
    """f_p(x) = (1 - x^p) / (p(1-p)) for p in (-1,2) \\ {0,1}; f''(1) = 1 for every p.

    The 1/(p(1-p)) normalization is folded into the measure, so the
    representation identity holds for f_p directly.  Outside p in (0,1) the
    function is operator convex but carries no admissible measure here and is
    registered for plain inequality checks only.
    """
    if p in (0.0, 1.0):
        raise InvalidParameter("p in {0, 1}: use neg_log (p=0 limit) instead")
    if not -1.0 < p < 2.0:
        raise InvalidParameter(f"f_p needs p in (-1, 2), got {p}")
    norm = p * (1.0 - p)

    def ev(x):
        x = np.asarray(x, dtype=float)
        return (1.0 - x ** p) / norm

    if 0.0 < p < 1.0:
        loewner_a = 0.0
        loewner_b = (math.cos(p * math.pi / 2.0) - 1.0) / norm
        mu_kappa = math.sin(p * math.pi) / (math.pi * norm)
        mu_q = p
    else:
        loewner_a = loewner_b = mu_kappa = mu_q = None
    return OperatorConvexFunction(
        name=f"f_p:{float(p)!r}",
        eval_fn=ev,
        second_at_one=1.0,
        at_zero=(1.0 / norm) if p > 0 else math.inf,
        recession=0.0 if p < 1.0 else math.inf,
        loewner_a=loewner_a,
        loewner_b=loewner_b,
        mu_kappa=mu_kappa,
        mu_q=mu_q,
    )


def split_id(fid: str) -> tuple[str, float | None]:
    """(head, p) of a function id: ("neg_log", None), ("f_p", 0.5), ("neg_power", 0.3)."""
    head, sep, tail = fid.strip().partition(":")
    if not sep:
        return head, None
    try:
        return head, float(tail)
    except ValueError as exc:
        raise InvalidParameter(f"bad parameter in function id {fid!r}") from exc


def from_id(fid: str) -> OperatorConvexFunction:
    """Resolve a string id: "neg_log", "f_p:<p>", "neg_power:<p>"."""
    head, p = split_id(fid)
    if p is None and head == "neg_log":
        return make_neg_log()
    if p is not None and head == "f_p":
        return make_f_p(p)
    if p is not None and head == "neg_power":
        return make_neg_power(p)
    raise InvalidParameter(f"unknown function id {fid!r}")


def power_of(f: OperatorConvexFunction) -> float | None:
    """The p of an ``f_p:<p>`` function, read from its id; None for any other f."""
    head, p = split_id(f.name)
    return p if head == "f_p" else None


# ----------------------------------------------------------------------------
# Integral representation quadrature
# ----------------------------------------------------------------------------

def loewner_quadrature(f: OperatorConvexFunction, x: float) -> float:
    """Evaluate the canonical representation of f at x by adaptive quadrature.

    Integrates on a log grid over [QUAD_T_LO, QUAD_T_HI] and closes both
    improper ends with the leading analytic corrections of the integrand's
    power-law decay.
    """
    t_lo, t_hi = QUAD_T_LO, QUAD_T_HI
    if not f.has_loewner_form:
        raise IrregularFunction(f"{f.name} has no evaluable integral representation")
    if x <= 0:
        raise InvalidParameter("representation defined on (0, inf)")
    from scipy.integrate import quad  # the only use of scipy: load it here, not with qre
    kap, q = f.mu_kappa, f.mu_q

    def integrand_log(u):
        t = math.exp(u)
        return (1.0 / (t + x) - t / (t * t + 1.0)) * kap * t ** (q + 1.0)

    val, _ = quad(integrand_log, math.log(t_lo), math.log(t_hi), limit=400)
    # integrand ~ kappa * (-x t^{q-2} + (1+x^2) t^{q-3}) for t >> max(1, x)
    tail = kap * (-x * t_hi ** (q - 1.0) / (1.0 - q) + (1.0 + x * x) * t_hi ** (q - 2.0) / (2.0 - q))
    # integrand ~ kappa * t^q (1/x - t (1/x^2 + 1)) for t << min(1, x)
    head = kap * (t_lo ** (q + 1.0) / ((q + 1.0) * x)
                  - t_lo ** (q + 2.0) * (1.0 / (x * x) + 1.0) / (q + 2.0))
    return f.loewner_a * x - f.loewner_b + val + tail + head
