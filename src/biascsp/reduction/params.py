"""The reduction's parameter ledger.

``ReductionParams`` holds the six desk parameters that the sampler and the
verifiers read; ``ReductionParams.manual`` is the desk-scale entry point used
by experiments and the CLI.  ``derive_params`` evaluates the asymptotic
parameter schedule, which at real problem scales produces astronomically
extreme rates, into a :class:`DerivedSchedule`: the desk parameters it
implies beside the schedule's other rates.  log10 companions are kept for
every quantity that can underflow, and a warning is recorded whenever the
lift dimension exceeds anything samplable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

SAMPLABLE_R_CAP = 1 << 20


@dataclass
class ReductionParams:
    mu: float
    r: int
    beta: float
    rho_sq: float
    R: int
    eta: float

    def __post_init__(self):
        if self.R < 1:
            raise ValueError("lift dimension must be a positive integer")
        if not 0.0 < self.rho_sq <= 1.0:
            raise ValueError("coupling rate must lie in (0,1]")
        for name in ("mu", "beta", "eta"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name}={v} must lie in (0,1)")

    @property
    def rho(self) -> float:
        return math.sqrt(self.rho_sq)

    @classmethod
    def manual(cls, mu: float, r: int, beta: float, rho_sq: float, R: int, eta: float) -> "ReductionParams":
        return cls(mu=mu, r=r, beta=beta, rho_sq=rho_sq, R=int(R), eta=eta)


@dataclass
class DerivedSchedule:
    """The asymptotic schedule of :func:`derive_params`: its desk parameters,
    the other rates, its inputs (gap-instance size, planted volume and
    soundness value), the log10 of the rates that can underflow, and its
    warnings."""

    mode: ClassVar[str] = "derived"
    params: ReductionParams
    nu: float
    gamma: float
    tau: float
    eps: float
    M: float
    kappa: float
    n_gap: int
    delta: float
    s: float
    log10: dict
    warnings: list

    def to_json(self) -> dict:
        p = self.params
        return {
            "mode": self.mode,
            "mu": p.mu,
            "r": p.r,
            "beta": p.beta,
            "rho_sq": p.rho_sq,
            "R": p.R,
            "eta": p.eta,
            "nu": self.nu,
            "gamma": self.gamma,
            "tau": self.tau,
            "eps": self.eps,
            "M": self.M,
            "kappa": self.kappa,
            "log10": dict(self.log10),
            "warnings": list(self.warnings),
        }


def derive_params(mu: float, r: int, n_gap: int, delta: float, s: float) -> DerivedSchedule:
    """Derive every rate of the asymptotic schedule from its inputs.

    Inputs: target bias, predicate arity, gap-instance size, planted volume,
    and the soundness value.  Quantities that underflow double precision are
    reported as 0.0 with their exact log10 recorded.
    """
    if not 0.0 < mu < 0.5:
        raise ValueError("bias must lie in (0, 1/2)")
    if r < 1 or not 0.0 < delta <= 0.5 or not 0.0 < s <= 1.0:
        raise ValueError("bad arity, volume, or soundness input")
    warnings_: list[str] = []
    beta = mu ** (4 * r) / n_gap ** 4
    if beta <= 0.0:
        raise ValueError("leak bias underflows double precision at these inputs")
    rho = 1.0 / (4.0 * r * r * math.log(1.0 / mu))
    rho_sq = min(rho * rho, 1.0)
    r_exact = 1.0 / (r * beta * delta)
    R = math.ceil(r_exact)
    if abs(r_exact - R) > 1e-9 * max(1.0, r_exact):
        warnings_.append(f"lift dimension {r_exact:.6g} rounded up to {R}")
    if R > SAMPLABLE_R_CAP:
        warnings_.append(f"lift dimension {R:.6g} exceeds the samplable cap")
    nu = s / 10.0 ** r
    ln_inv_gamma = 10.0 * R * math.log(2.0) - 2.0 * math.log(nu)
    gamma = math.exp(-ln_inv_gamma) if ln_inv_gamma < 700 else 0.0
    eta = min(beta * beta / r, nu)
    ln_tau = (100.0 * r * r * ln_inv_gamma / (eta * beta)) * math.log(s * mu / r)
    tau = math.exp(ln_tau) if ln_tau > -700 else 0.0
    ln_eps = (
        2.0 * math.log(beta)
        + 4.0 * math.log(nu)
        + 4.0 * math.log(eta)
        + 6.0 * ln_tau
        - 24.0 * math.log(2.0)
        - 4.0 * math.log(r)
    )
    eps = math.exp(ln_eps) if ln_eps > -700 else 0.0
    ln_m = -0.5 * ln_eps
    m_val = math.exp(ln_m) if ln_m < 700 else float("inf")
    kappa = beta / ln_inv_gamma
    log10 = {
        "gamma": -ln_inv_gamma / math.log(10.0),
        "tau": ln_tau / math.log(10.0),
        "eps": ln_eps / math.log(10.0),
        "M": ln_m / math.log(10.0),
    }
    return DerivedSchedule(
        params=ReductionParams(mu=mu, r=r, beta=beta, rho_sq=rho_sq, R=R, eta=eta),
        nu=nu,
        gamma=gamma,
        tau=tau,
        eps=eps,
        M=m_val,
        kappa=kappa,
        n_gap=n_gap,
        delta=delta,
        s=s,
        log10=log10,
        warnings=warnings_,
    )
