"""Belief-space macro-action planning for decentralized multi-robot teams."""

from .beliefs import (GainSpec, GaussianBelief, LinearGaussianModel, Lma,
                      SimState, StepCost, TerminationRecord, design_lma,
                      lma_step, run_lma, stationary_covariance)
from .errors import (ConfigError, GoalUnreachable, MacroplanError,
                     NonConvergent, NoOutgoingEdge, NoValidSuccessor,
                     SingularChain, Unstabilizable)
from .tma import (GraphEdge, Milestone, Tma, TmaConfig, TmaGraph, construct_tma,
                  estimate_edge, expected_times, save_tma, solve_graph_dp,
                  success_probabilities)
from .decposmdp import (Domain, GraphTmaExecution, JointConfig,
                        JointGraphExecution, PolicyValue, RewardSpec,
                        RolloutTrace, SegmentResult, TimedExecution, TmaSpec,
                        evaluate_joint_policy, run_rollout, segment_starts,
                        step_joint)
from .search import (JointPolicy, Mask, PolicyController, SearchConfig,
                     SearchResult, create_mask, load_policy, mmcs,
                     monte_carlo_search, sample_joint_policy,
                     sample_valid_controller, save_policy)
from .delivery import (DeliveryConfig, DeliveryDomain, PackageDescriptor,
                       WorldState, build_domain, desk_config, success_curve,
                       total_delivered)

__version__ = "0.1.0"
