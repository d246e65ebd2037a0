"""Exception types shared across the toolkit, and the field check every
config dataclass runs."""

import sys
from dataclasses import fields
from typing import Type


class MacroplanError(Exception):
    """Base class for all toolkit errors."""


class NonConvergent(MacroplanError):
    """An iteration did not reach its fixed point: the doubling solver of
    the filter Riccati equation, on a mode that is neither observed nor
    stable, or the graph DP."""


class Unstabilizable(MacroplanError):
    """No gain in the requested family stabilizes the control pair."""


class GoalUnreachable(MacroplanError):
    """Constructed macro-action graph has zero success probability from the
    start, either because the nodes the start reaches never land on the goal
    or failure node (raised before the graph DP) or because the solved
    policy never reaches the goal."""


class SingularChain(MacroplanError):
    """Absorbing-chain linear system is singular (closed transient class)."""


class NoOutgoingEdge(MacroplanError):
    """A reachable non-terminal graph node has no outgoing edges."""


class NoValidSuccessor(MacroplanError):
    """Some (macro-action, observation) pair has an empty successor set."""


class ConfigError(MacroplanError):
    """Scenario or command configuration is inconsistent."""


def is_finite_number(value) -> bool:
    """Whether ``value`` is an int or float, not a bool, that a finite float
    can hold: not nan, not infinite, and no int too large to convert."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def check_field_types(config, error: Type[Exception]) -> None:
    """Raise ``error`` unless each field of the dataclass ``config`` whose
    default is an int holds an int, and each whose default is a float holds
    a finite number; a bool is neither."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(f.default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise error(f"{f.name} must be an integer, not {value!r}")
        elif isinstance(f.default, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise error(f"{f.name} must be a number, not {value!r}")
            if not is_finite_number(value):
                raise error(f"{f.name} must be finite, not {value!r}")
