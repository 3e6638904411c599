"""The one verdict record of a check, and the status rule of every record.

A :class:`Check` compares a value with a bound on one side, ``value <=
bound`` or ``value >= bound``, allowing ``slack`` plus :data:`SIGMAS`
standard errors.  Its ``span`` is the interval of every value the check
can take (``(0, 1)`` for a probability); the check is vacuous when every
value in the span meets the bound before the band, so that no outcome
could fail it.  A check whose premise is not met (``applicable`` false)
asserts nothing.  ``holds``, ``vacuous`` and the status are derived here
alone; ``harness.pipeline.stage`` serializes a check into a stage record.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# Every Monte Carlo comparison allows this many standard errors.
SIGMAS = 3.0


def status(verdict, applicable=None, vacuous=None) -> str:
    """The status of a record, by precedence: ``fail`` when the verdict is
    False; ``not-applicable`` when there is no verdict or the premise is not
    met; ``vacuous`` when the check cannot fail; ``pass`` otherwise."""
    if verdict is not None and not verdict:
        return "fail"
    if verdict is None or (applicable is not None and not applicable):
        return "not-applicable"
    return "vacuous" if vacuous else "pass"


@dataclass(frozen=True)
class Check:
    """One comparison of a value with a bound.

    ``counters`` go into the stage record's ``extra``; ``detail`` holds the
    runs and terms behind the value, which the record leaves out.  Both are
    read as attributes: ``check.threads``, ``check.joint``.
    """

    value: float
    bound: float
    side: str = "<="  # value <= bound, or ">=": value >= bound
    stderr: float | None = None  # None or 0 when the value is exact
    slack: float = 0.0
    span: tuple[float, float] | None = None  # every value the check can take; None: unbounded
    samples: int | None = None
    seed: int | None = None
    applicable: bool | None = None  # None: the check has no premise
    counters: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.side not in ("<=", ">="):
            raise ValueError(f"side must be '<=' or '>=', got {self.side!r}")

    def __getattr__(self, name):
        for part in ("counters", "detail"):
            table = self.__dict__.get(part, {})
            if name in table:
                return table[name]
        raise AttributeError(f"{type(self).__name__} has no attribute or counter {name!r}")

    def _meets(self, value: float, band: float) -> bool:
        if self.side == "<=":
            return bool(value <= self.bound + band)
        return bool(value >= self.bound - band)

    @property
    def holds(self) -> bool | None:
        """The value meets the bound within slack + SIGMAS * stderr; None
        when the premise is not met."""
        if self.applicable is not None and not self.applicable:
            return None
        return self._meets(self.value, self.slack + SIGMAS * (self.stderr or 0.0))

    @property
    def vacuous(self) -> bool:
        """Every value in the span meets the bound with no band, so the
        check cannot fail; the comparison is monotone, so the span's ends
        decide it."""
        return self.span is not None and all(self._meets(end, 0.0) for end in self.span)

    @property
    def status(self) -> str:
        return status(self.holds, self.applicable, self.vacuous)
