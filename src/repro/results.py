"""Shared result shapes: one frozen dataclass per kind of outcome.

Before this module every layer carried its own result shape -- the
fitness module's ``EvaluationOutcome``, Table 1's row class, the 33 x 33
experiment's record, the campaign's plain row dicts.  They are
consolidated here as frozen dataclasses with a symmetric ``to_json()`` /
``from_json()`` pair so results survive any wire or file boundary (the
TCP transport, the persistent evaluation-cache store, ``results.json``)
without per-module codecs.

Compatibility: the old import paths and key spellings keep working for
one release but emit :class:`DeprecationWarning` --
``repro.evolution.fitness.EvaluationOutcome`` and
``repro.experiments.table1.Table1Row`` resolve here via module-level
``__getattr__``, and campaign rows still answer ``row["t_time"]``-style
subscription through :meth:`CampaignCell.__getitem__`.
"""

import math
from dataclasses import dataclass, fields
from typing import Optional

from repro._compat import warn_deprecated


def _json_float(value):
    """JSON-safe float: ``inf`` (no field solved) becomes ``None``."""
    return value if value is not None and math.isfinite(value) else None


def _from_json_float(value):
    return float("inf") if value is None else float(value)


@dataclass(frozen=True)
class EvaluationResult:
    """One FSM's evaluation over one suite (the canonical outcome).

    This is the value every evaluation path returns -- serial
    ``evaluate_fsm``, batched ``evaluate_population``, the service, the
    TCP transport -- so bit-exactness checks are plain ``==``.
    """

    fitness: float
    mean_time: float
    n_fields: int
    n_successful_fields: int

    @property
    def completely_successful(self):
        """Solved every field of the suite (the reliability criterion)."""
        return self.n_successful_fields == self.n_fields

    def to_json(self):
        """Wire form; ``mean_time`` is ``None`` when no field was solved."""
        return {
            "fitness": self.fitness,
            "mean_time": _json_float(self.mean_time),
            "n_fields": self.n_fields,
            "n_successful_fields": self.n_successful_fields,
            "completely_successful": self.completely_successful,
        }

    @classmethod
    def from_json(cls, payload):
        return cls(
            fitness=float(payload["fitness"]),
            mean_time=_from_json_float(payload.get("mean_time")),
            n_fields=int(payload["n_fields"]),
            n_successful_fields=int(payload["n_successful_fields"]),
        )


@dataclass(frozen=True)
class Table1Cell:
    """One measured column of the paper's Table 1."""

    n_agents: int
    t_time: float
    s_time: float
    t_reliable: bool
    s_reliable: bool
    paper_t: Optional[float]
    paper_s: Optional[float]

    @property
    def ratio(self):
        return self.t_time / self.s_time

    @property
    def paper_ratio(self):
        if self.paper_t is None or self.paper_s is None:
            return None
        return self.paper_t / self.paper_s

    def to_json(self):
        return {
            "n_agents": self.n_agents,
            "t_time": _json_float(self.t_time),
            "s_time": _json_float(self.s_time),
            "ratio": _json_float(self.ratio),
            "t_reliable": self.t_reliable,
            "s_reliable": self.s_reliable,
            "paper_t": self.paper_t,
            "paper_s": self.paper_s,
        }

    @classmethod
    def from_json(cls, payload):
        return cls(
            n_agents=int(payload["n_agents"]),
            t_time=_from_json_float(payload["t_time"]),
            s_time=_from_json_float(payload["s_time"]),
            t_reliable=bool(payload["t_reliable"]),
            s_reliable=bool(payload["s_reliable"]),
            paper_t=payload.get("paper_t"),
            paper_s=payload.get("paper_s"),
        )


@dataclass(frozen=True)
class Grid33Result:
    """Measured 33 x 33 outcomes per grid kind (paper Sect. 5)."""

    mean_time: dict       # kind -> mean steps
    reliable: dict        # kind -> completely successful
    n_fields: int

    @property
    def ratio(self):
        return self.mean_time["T"] / self.mean_time["S"]

    def to_json(self):
        return {
            "mean_time": {k: _json_float(v) for k, v in self.mean_time.items()},
            "reliable": dict(self.reliable),
            "n_fields": self.n_fields,
        }

    @classmethod
    def from_json(cls, payload):
        return cls(
            mean_time={
                k: _from_json_float(v)
                for k, v in payload["mean_time"].items()
            },
            reliable={k: bool(v) for k, v in payload["reliable"].items()},
            n_fields=int(payload["n_fields"]),
        )


@dataclass(frozen=True)
class CampaignCell:
    """One Table 1 row of a campaign report (was a plain dict).

    ``cell["t_time"]``-style subscription still works for one release but
    warns; the canonical access is the attribute.
    """

    t_time: float
    s_time: float
    ratio: float
    paper_t: Optional[float]
    paper_s: Optional[float]
    reliable: bool

    def to_json(self):
        return {
            "t_time": self.t_time,
            "s_time": self.s_time,
            "ratio": self.ratio,
            "paper_t": self.paper_t,
            "paper_s": self.paper_s,
            "reliable": self.reliable,
        }

    @classmethod
    def from_json(cls, payload):
        return cls(**{f.name: payload[f.name] for f in fields(cls)})

    def __getitem__(self, key):
        if key not in {f.name for f in fields(self)}:
            raise KeyError(key)
        warn_deprecated(f'campaign cell["{key}"] subscription',
                        f"the .{key} attribute")
        return getattr(self, key)


#: Deprecated aliases served via module ``__getattr__`` below.
_DEPRECATED_NAMES = {
    "EvaluationOutcome": ("repro.results.EvaluationResult", EvaluationResult),
    "Table1Row": ("repro.results.Table1Cell", Table1Cell),
}


def __getattr__(name):
    if name in _DEPRECATED_NAMES:
        canonical, target = _DEPRECATED_NAMES[name]
        warn_deprecated(f"repro.results.{name}", canonical)
        return target
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EvaluationResult",
    "Table1Cell",
    "Grid33Result",
    "CampaignCell",
    "warn_deprecated",
]
