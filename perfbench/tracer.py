"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``macroplan`` at run time.  Every
binding a caller looks up is replaced: the module attribute a caller imported
(``macroplan.decposmdp.lma_step`` as well as ``macroplan.beliefs.lma_step``)
and the method on the class.  Each call records one span (name, start, end,
parent span, operation id) into flat in-memory arrays; nothing is aggregated
on the hot path.  Self times, counts and per-call times are computed from the
arrays once the run ends, and the arrays are written out as one ``.npz``.

Counts that say how much work a layer did come from return values
(``TerminationRecord.outcome``, ``SegmentResult.tau_min`` and
``.dead_agents``, the returned masks, ``GraphEdge.sample_count``), so they
repeat exactly for a fixed seed.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np


def _on_run_lma(counts: Counter, rec) -> None:
    counts["beliefs.run_lma." + rec.outcome] += 1


def _on_edge(counts: Counter, edge) -> None:
    counts["tma.edge_sims"] += edge.sample_count


def _on_segment(counts: Counter, seg) -> None:
    counts["decposmdp.joint_steps"] += seg.tau_min
    counts["decposmdp.dead_agents"] += len(seg.dead_agents)


def _on_mask(counts: Counter, result) -> None:
    masks, _ = result
    counts["search.mask_pairs"] += sum(len(m) for m in masks)


def bindings(mp) -> List[tuple]:
    """(span name, [(owner, attribute), ...], result hook) for every traced
    function; ``mp`` is the imported ``macroplan`` package."""
    b, c, t, d = mp.beliefs, mp.chains, mp.tma, mp.decposmdp
    s, dv = mp.search, mp.delivery
    dom = dv.DeliveryDomain
    return [
        ("beliefs.lma_step", [(b, "lma_step"), (d, "lma_step")], None),
        ("beliefs.run_lma", [(b, "run_lma"), (t, "run_lma")], _on_run_lma),
        ("chains.absorption_probabilities",
         [(c, "absorption_probabilities")], None),
        ("chains.expected_absorption_times",
         [(c, "expected_absorption_times")], None),
        ("tma.construct_tma", [(t, "construct_tma"), (dv, "construct_tma")],
         None),
        ("tma.estimate_edge", [(t, "estimate_edge")], _on_edge),
        ("tma.solve_graph_dp", [(t, "solve_graph_dp")], None),
        ("tma.distances", [(t.Tma, "distances")], None),
        ("decposmdp.run_rollout", [(d, "run_rollout")], None),
        ("decposmdp.step_joint", [(d, "step_joint")], _on_segment),
        ("delivery.build_domain", [(dv, "build_domain")], None),
        ("delivery.observe", [(dom, "observe")], None),
        ("delivery.begin_executions", [(dom, "begin_executions")], None),
        ("delivery.e_dynamics", [(dom, "e_dynamics")], None),
        ("delivery.initiation_ok", [(dom, "initiation_ok")], None),
        ("delivery.team_reward", [(dom, "team_reward")], None),
        ("search.sample_valid_controller",
         [(s, "sample_valid_controller")], None),
        ("search.create_mask", [(s, "create_mask")], _on_mask),
        ("search.evaluate_joint_policy", [(s, "evaluate_joint_policy")],
         None),
    ]


class Tracer:
    """Records spans of wrapped calls; use ``install``/``uninstall`` around
    the traced part of a run, or ``wrap`` for the benchmark's own calls."""

    def __init__(self, error_type: type):
        self.error_type = error_type  # exceptions counted as ``.raised``
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def wrap(self, name: str, fn: Callable,
             hook: Optional[Callable] = None) -> Callable:
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        start, end, names, parent, op = (self.start, self.end, self.name,
                                         self.parent, self.op)
        stack, counts, error_type = self._stack, self.counts, self.error_type
        raised_key = name + ".raised"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except error_type:
                counts[raised_key] += 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def install(self, mp) -> None:
        for name, owners, hook in bindings(mp):
            wrapper = None
            for owner, attr in owners:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                if wrapper is None:
                    wrapper = self.wrap(name, original, hook)
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ----- analysis ---------------------------------------------------------
    def arrays(self) -> dict:
        return {"start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float),
                "name": np.array(self.name, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "op": np.array(self.op, dtype=np.int64)}

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.  A span's
        self time is its duration minus the durations of its child spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        n, k = len(dur), len(self.names)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        top = np.bincount(a["name"][~has_parent], weights=dur[~has_parent],
                          minlength=k)
        return {nm: {"calls": int(calls[i]), "total_s": float(total[i]),
                     "self_s": float(self_s[i]), "top_s": float(top[i])}
                for i, nm in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
