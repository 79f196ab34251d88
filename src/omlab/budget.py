"""Resource caps for the exhaustive parts of the toolkit.

Several operations enumerate exponentially sized spaces (event families,
sets of nodes, execution trees).  A ``Budget`` makes the caps explicit so
oversized instances fail fast with a dedicated error instead of hanging.
``max_game_nodes`` bounds both searches over sets of nodes: the flooding
game refuses more nodes up front, and the incompatible-subset search stops
once it holds more than 2^``max_game_nodes`` intersections.  A library
call takes a plain ``Budget``, by default ``DEFAULT_BUDGET``, and reads
no environment.  Only the CLI reads ``OMLAB_BUDGET``, once per command,
through ``Budget.from_env``: a bare integer sets both the execution cap
and the family-size cap, and a comma list of ``key=value`` pairs names
each cap at most once, e.g. ``OMLAB_BUDGET=max_executions=2000000``.
``effective_budget`` is kept only because the benchmark's tracer imports it.

The CLI maps the two error types defined here to exit codes:
``BudgetExceededError``, which a capped enumeration raises, to 65, and
``InputError``, which every input check of the library and the CLI raises,
to 64.
"""
from __future__ import annotations

import os
from typing import NamedTuple

DEFAULT_MAX_FAMILY_EVENTS = 1 << 20
DEFAULT_MAX_GAME_NODES = 20
DEFAULT_MAX_EXECUTIONS = 1_000_000

ENV_VAR = "OMLAB_BUDGET"


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured resource caps."""


class InputError(ValueError):
    """An argument, file or setting is malformed or out of range."""


class Budget(NamedTuple(
    "Budget", [("max_family_events", int), ("max_game_nodes", int), ("max_executions", int)]
)):
    __slots__ = ()

    def __new__(
        cls,
        max_family_events: int = DEFAULT_MAX_FAMILY_EVENTS,
        max_game_nodes: int = DEFAULT_MAX_GAME_NODES,
        max_executions: int = DEFAULT_MAX_EXECUTIONS,
    ) -> Budget:
        caps = (max_family_events, max_game_nodes, max_executions)
        for name, cap in zip(cls._fields, caps):
            if cap <= 0:
                raise InputError(f"budget cap {name} must be positive")
        return tuple.__new__(cls, caps)

    def check(self, cap: str, amount: int) -> None:
        """Raise ``BudgetExceededError`` naming ``cap`` when ``amount`` exceeds it."""
        limit = getattr(self, cap)
        if amount > limit:
            raise BudgetExceededError(f"{cap}: {amount:,} > {limit:,}")

    @classmethod
    def from_env(cls, env: str | None = None) -> "Budget":
        raw = os.environ.get(ENV_VAR) if env is None else env
        if not raw:
            return cls()
        raw = raw.strip()
        if raw.isdecimal():
            return cls(max_executions=int(raw), max_family_events=int(raw))
        caps: dict[str, int] = {}
        for part in raw.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in cls._fields or not value.strip().isdecimal():
                raise InputError(f"cannot parse entry: {part!r}")
            if key in caps:
                raise InputError(f"repeated entry: {part!r}")
            caps[key] = int(value)
        return cls(**caps)


DEFAULT_BUDGET = Budget()


def effective_budget(budget: Budget | None) -> Budget:
    """``budget``, or ``DEFAULT_BUDGET`` for None; only the benchmark's tracer calls it."""
    return budget if budget is not None else DEFAULT_BUDGET
