"""Shared result container for the three global minimizers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .param import ClarkeInterval


class Status(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"


@dataclass
class MinResult:
    """Outcome of a global minimization of lambda_max(A(w)) over the domain.

    ``trace`` rows are ``(k, omega_k, value_k, lower_bound_k)``; lower bounds
    are ``-inf`` for evaluations made before a model/certificate existed and
    are non-decreasing along the run.  ``f_star`` is the best certified
    function value and ``lower_bound`` the final certified lower bound
    (``-inf`` for methods that do not produce one).  ``clarke`` is the
    derivative interval at ``omega_star``; for ``support`` and ``subspace``
    it spans at most ``MAX_CLUSTER_DEFAULT`` branches, a sub-interval of
    the true one, so only a true ``contains_zero_strictly`` is conclusive.
    """

    omega_star: float
    f_star: float
    lower_bound: float
    iterations: int
    trace: list = field(default_factory=list)
    clarke: Optional[ClarkeInterval] = None
    status: Status = Status.CONVERGED
    note: str = ""

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED
