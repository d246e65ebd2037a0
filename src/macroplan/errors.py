"""Exception types shared across the toolkit."""


class MacroplanError(Exception):
    """Base class for all toolkit errors."""


class NonConvergent(MacroplanError):
    """Riccati iteration failed to reach its fixed point (unobservable model)."""


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


class InitiationViolated(MacroplanError):
    """A macro-action was assigned while its initiation predicate is false."""


class ConfigError(MacroplanError):
    """Scenario or command configuration is inconsistent."""
