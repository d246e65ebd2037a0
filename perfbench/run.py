"""Benchmark for macroplan: TMA construction and desk-scale policy search.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-solve --seed 0 --seconds 45 --trace 0

``--trace 0`` times a closed loop of public-API calls over the block of
consecutive seeds from the workload's seed base (``--seed`` plus the
workload's offset), then repeats the block while ``--seconds`` lasts.
The run digest, ``attempted`` and ``failed`` cover the first pass.  Times
are scaled to a reference speed of the host (``HostClock``).  It prints
every end-to-end metric that ``BENCHMARK.json`` lists, and more figures
above them.

``--trace 1`` runs a shorter block twice, untraced and then with every public
function of the program layers wrapped by ``tracer.Tracer``, checks that both
passes give the same outputs, and prints the per-layer metrics that
``BENCHMARK.json`` lists.  The spans are written to ``perfbench/runs/``.

Every run checks each output (see ``workloads``) and compares per-seed output
digests, and traced counts, with earlier runs of identical code in the same
checkout.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List

from tracer import Tracer
from workloads import (HERE, ROOT, WORKLOADS, Outcome, ProgramMissing,
                       block_digest, import_program, run_op, source_hash)

RUNS = HERE / "runs"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def metric_units(kind: str) -> Dict[str, str]:
    """Name and unit of each ``end_to_end`` or ``per_layer`` metric listed in
    ``BENCHMARK.json``, in its order."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


# ----- environment and records of earlier runs -------------------------------

def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(mp, seed_base: int) -> Dict[str, object]:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "macroplan": mp.__version__,
            "blas_threads": {k: os.environ[k] for k in BLAS_ENV
                             if k in os.environ} or "unset",
            "commit": git_commit(), "source": source_hash(),
            "seed_base": seed_base}


class Records:
    """Per-seed output digests and traced counts of earlier runs of the same
    code in this checkout; a run that disagrees with them is not correct."""

    def __init__(self, workload: str, source: str):
        self.path = RUNS / f"records-{workload}.json"
        self.data = {}
        if self.path.exists():
            with open(self.path) as f:
                self.data = json.load(f)
        self.mine = self.data.setdefault(source, {"seeds": {}, "counts": {}})

    def check_seeds(self, outcomes: List[Outcome]) -> List[str]:
        problems = []
        for o in outcomes:
            seen = self.mine["seeds"].setdefault(str(o.seed), o.digest)
            if seen != o.digest:
                problems.append(f"seed {o.seed}: output digest {o.digest} "
                                f"differs from an earlier run ({seen})")
        return problems

    def check_counts(self, seed_base: int, counts: dict) -> List[str]:
        seen = self.mine["counts"].setdefault(str(seed_base), counts)
        return [f"traced count {k} = {counts.get(k)} differs from an earlier "
                f"traced run ({seen.get(k)})"
                for k in sorted(set(seen) | set(counts))
                if seen.get(k) != counts.get(k)]

    def save(self) -> None:
        RUNS.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w") as f:
            json.dump(self.data, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


# ----- timing ----------------------------------------------------------------

REF_STEPS = 1000
# Seconds that one pass of reference_work takes in a fast phase of the host
# the bounds were set on: a 2-vCPU Xeon VM with Python 3.11.7, numpy 2.4.6.
REF_NOMINAL_S = 0.019
# After each step the clock runs reference_work for at least this share of
# the step's wall time, so that a long step gets a long sample of the host.
REF_SHARE = 0.1


def reference_work() -> float:
    """Fixed work of the kind the program spends most of its time on: a 2-D
    Kalman filter on small numpy arrays, with dict bookkeeping in Python.
    It is benchmark code, so no change to the program moves its time; only
    the host's speed does."""
    import numpy as np
    rng = np.random.default_rng(0)
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    Q = 1e-4 * np.eye(2)
    x, P = np.zeros(2), np.eye(2)
    tally: Dict[int, float] = {}
    for i in range(REF_STEPS):
        x = A @ x + 0.01 * rng.standard_normal(2)
        P = A @ P @ A.T + Q
        K = np.linalg.solve(P + Q, P).T
        P = (np.eye(2) - K) @ P
        tally[i % 97] = tally.get(i % 97, 0.0) + float(x[0])
    return sum(tally.values())


class HostClock:
    """Turns wall times into seconds at the reference speed.

    The host's speed changes by up to 2x, in phases that last from a tenth
    of a second to minutes (README, Host noise).  The clock samples it
    before the first step and after every step, by running
    ``reference_work`` for at least ``REF_SHARE`` of the step's wall time.
    A step's wall time is scaled by ``REF_NOMINAL_S`` over the mean
    reference time of the samples on either side of it.  The reference work
    is benchmark code: a program twice as fast still reads half the
    seconds."""

    def __init__(self):
        self.refs = [self._reference(0.0)]

    @staticmethod
    def _reference(at_least: float) -> float:
        """Mean time of one pass of ``reference_work`` over one or more
        passes that together last at least ``at_least`` seconds."""
        passes, t0 = 0, perf_counter()
        while passes == 0 or perf_counter() - t0 < at_least:
            reference_work()
            passes += 1
        return (perf_counter() - t0) / passes

    def scaled(self, seconds: float) -> float:
        self.refs.append(self._reference(REF_SHARE * seconds))
        return seconds * REF_NOMINAL_S / statistics.fmean(self.refs[-2:])


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def timing_summary(samples: List[float]) -> str:
    """Median plus the highest percentile with at least 10 samples beyond
    it, and the sample count."""
    import numpy as np
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} s over n={n}"
    p = int(100.0 * (1.0 - 10.0 / n)) if n else 0
    if p > 50:
        text += f", p{p} {float(np.percentile(samples, p)):.4f} s"
    else:
        text += " (a tail percentile needs n >= 21)"
    return text


def timed_loop(mp, wl, seed_base: int, seconds: float):
    """Closed loop: passes over the block of consecutive seeds from
    ``seed_base``, the first one whole, the others while the next call is
    expected, from its seed's first call, to end within ``seconds``.  Seeds
    whose call raised are repeated like the others.  The repeated set-ups
    are spread between the calls, so that ``setup_s`` samples the whole run.
    Every call and set-up is also timed by a ``HostClock``; each outcome's
    ``scaled`` holds its call's seconds at the reference speed.
    Returns the scaled set-up times, the outcomes and the clock."""
    clock = HostClock()
    setup_times: List[float] = []

    def set_up():
        t0 = perf_counter()
        ctx = wl.setup(mp)
        setup_times.append(clock.scaled(perf_counter() - t0))
        return ctx

    ctx = set_up()
    outcomes: List[Outcome] = []

    def call(seed):
        o = run_op(mp, wl, ctx, seed)
        o.scaled = clock.scaled(o.seconds)
        outcomes.append(o)
        if len(setup_times) < wl.setup_reps:
            set_up()

    t0 = perf_counter()
    for seed in range(seed_base, seed_base + wl.block):
        call(seed)
    first = {o.seed: o.seconds for o in outcomes}
    for seed in itertools.cycle(first):
        if perf_counter() - t0 + first[seed] > seconds:
            break
        call(seed)
    while len(setup_times) < wl.setup_reps:
        set_up()
    return setup_times, outcomes, clock


def class_means(outcomes: List[Outcome]) -> Dict[str, float]:
    """Each block seed's mean scaled call time, whether its calls returned
    or raised; then the mean over the seeds whose calls returned and the
    mean over the seeds whose calls raised, for each class the block
    holds."""
    times: Dict[int, List[float]] = {}
    raised: Dict[int, bool] = {}
    for o in outcomes:
        times.setdefault(o.seed, []).append(o.scaled)
        raised[o.seed] = o.error is not None
    means = {}
    for name, flag in (("returned", False), ("raised", True)):
        seeds = [statistics.fmean(t) for seed, t in times.items()
                 if raised[seed] == flag]
        if seeds:
            means[name] = statistics.fmean(seeds)
    return means


def call_seconds(outcomes: List[Outcome]) -> float:
    """The mean of ``class_means``: a call's time with the block's returned
    and raised calls weighted equally, so that it does not move with how
    many seeds of a block raise."""
    return statistics.fmean(class_means(outcomes).values())


def run_timed(mp, wl, seed_base: int, seconds: float, records: Records):
    setup_times, outcomes, clock = timed_loop(mp, wl, seed_base, seconds)
    block = outcomes[:wl.block]
    busy = sum(o.seconds for o in block)
    ok = [o for o in outcomes if o.error is None]
    problems = [f"seed {o.seed}: {p}" for o in outcomes for p in o.problems]
    problems += records.check_seeds(outcomes)

    setup_s = statistics.median(setup_times)
    call_s = call_seconds(outcomes)
    rss = peak_rss_mb()
    n_failed = sum(1 for o in block if o.error is not None)
    last = block[-1].seed
    ref = statistics.median(clock.refs)
    print(f"host speed   reference work median {ref:.4f} s over "
          f"n={len(clock.refs)} (nominal {REF_NOMINAL_S} s), "
          f"{min(clock.refs):.4f}-{max(clock.refs):.4f} s; the times "
          f"below marked 'scaled' are seconds at the nominal speed")
    print(f"setup_s      {setup_s:.4f} s       scaled, median of "
          f"{wl.setup_reps} set-ups spread over the run")
    if ok:
        name = "tma_build_s" if wl.name == "tma-build" else "search_s"
        print(f"{name:<12} {timing_summary([o.seconds for o in ok])}, "
              f"wall time of the calls that returned")
    print(f"call_s       {call_s:.4f} s       scaled, mean of "
          + " and ".join(f"{m:.4f} s over the seeds whose calls {kind}"
                         for kind, m in class_means(outcomes).items())
          + ", each seed's mean call")
    if wl.name == "tma-build":
        built = sum(1 for o in block if o.error is None)
        print(f"tmas_per_s   {built / busy:.4f} 1/s     {built} TMAs built "
              f"in {busy:.2f} s of calls over the block, failed attempts "
              f"included")
    else:
        evals = sum(o.record["evaluations"] for o in block
                    if o.error is None)
        print(f"evals_per_s  {evals / busy:.4f} 1/s     {evals} policy "
              f"evaluations in {busy:.2f} s of calls over the block")
        values = [float(o.record["best_value"]) for o in block
                  if o.error is None]
        if values:
            print(f"policy_value {statistics.fmean(values):.4f} reward  mean "
                  f"best_value over seeds {seed_base}-{last}")
    print(f"failed_frac  {n_failed / len(block):.4f} ratio   {n_failed} of "
          f"{len(block)} seeds raised a MacroplanError "
          f"(seeds {[o.seed for o in block if o.error is not None]})")
    print(f"peak_rss_mb  {rss:.1f} MB")
    print("op seconds   wall/scaled " + " ".join(
        f"{o.seed}:{o.seconds:.3f}/{o.scaled:.3f}"
        f"{'' if o.error is None else '!'}" for o in outcomes))
    print(f"digest       {block_digest(block)} over seeds {seed_base}-{last}")

    metrics = {"setup_s": setup_s, "call_s": call_s, "peak_rss_mb": rss}
    return outcomes, problems, block, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in metric_units("end_to_end").items()}


# ----- traced run ------------------------------------------------------------

def layer_metrics(s: Dict[str, dict], counts, traced: List[Outcome],
                  wall: float, overhead: float, op_span) -> Dict[str, float]:
    def calls(n):
        return s[n]["calls"]

    def per_call(n, scale):
        return s[n]["total_s"] / calls(n) * scale if calls(n) else 0.0

    m: Dict[str, float] = {}
    for n in ("beliefs.lma_step", "beliefs.run_lma", "tma.estimate_edge",
              "tma.solve_graph_dp", "tma.distances", "decposmdp.step_joint",
              "delivery.observe", "delivery.begin_executions",
              "delivery.e_dynamics", "delivery.initiation_ok",
              "delivery.team_reward", "search.sample_valid_controller",
              "search.create_mask"):
        m[n + ".calls"] = calls(n)
        m[n + ".self_s"] = s[n]["self_s"]
    for n in ("beliefs.lma_step", "tma.distances",
              "search.sample_valid_controller"):
        m[n + ".us"] = per_call(n, 1e6)
    runs = calls("beliefs.run_lma")
    m["beliefs.run_lma.land_frac"] = (
        counts["beliefs.run_lma.landed"] / runs if runs else 0.0)
    m["beliefs.run_lma.timeout"] = counts["beliefs.run_lma.timeout"]
    m["beliefs.run_lma.failed"] = counts["beliefs.run_lma.failed"]
    m["tma.edge_sims"] = counts["tma.edge_sims"]
    m["tma.solve_graph_dp.failed"] = counts["tma.solve_graph_dp.raised"]
    m["tma.construct_tma.s"] = s["tma.construct_tma"]["total_s"]
    chains = ("chains.absorption_probabilities",
              "chains.expected_absorption_times")
    m["chains.solve.calls"] = sum(calls(n) for n in chains)
    m["chains.self_s"] = sum(s[n]["self_s"] for n in chains)
    m["decposmdp.run_rollout.calls"] = calls("decposmdp.run_rollout")
    m["decposmdp.run_rollout.ms"] = per_call("decposmdp.run_rollout", 1e3)
    steps = counts["decposmdp.joint_steps"]
    m["decposmdp.joint_steps"] = steps
    m["decposmdp.us_per_joint_step"] = (
        s["decposmdp.step_joint"]["total_s"] / steps * 1e6 if steps else 0.0)
    m["decposmdp.dead_agents"] = counts["decposmdp.dead_agents"]
    m["delivery.build_domain.s"] = s["delivery.build_domain"]["total_s"]
    m["search.mask_pairs"] = counts["search.mask_pairs"]
    search_s = s[op_span]["total_s"] if op_span else 0.0
    m["search.eval_frac"] = (s["search.evaluate_joint_policy"]["total_s"]
                             / search_s if search_s else 0.0)
    values = [float(o.record["best_value"]) for o in traced
              if o.error is None and "best_value" in o.record]
    m["search.best_value"] = statistics.fmean(values) if values else 0.0
    m["failed_frac"] = sum(1 for o in traced if o.error) / len(traced)
    top = sum(v["top_s"] for v in s.values())
    m["trace.wall_s"] = wall
    m["trace.uncovered_s"] = wall - top
    m["trace.overhead_s"] = overhead
    return m


def run_traced(mp, wl, seed_base: int, records: Records):
    seeds = range(seed_base, seed_base + wl.trace_block)
    ctx = wl.setup(mp)
    untraced = [run_op(mp, wl, ctx, seed) for seed in seeds]

    tracer = Tracer(mp.errors.MacroplanError)
    tracer.install(mp)
    op = tracer.wrap(wl.op_span, wl.op) if wl.op_span else wl.op
    try:
        t0 = perf_counter()
        ctx = wl.setup(mp)
        traced = []
        for k, seed in enumerate(seeds):
            tracer.op_id = k
            traced.append(run_op(mp, wl, ctx, seed, op))
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()

    outcomes = untraced + traced
    problems = [f"seed {o.seed}: {p}" for o in outcomes for p in o.problems]
    problems += records.check_seeds(outcomes)
    if block_digest(untraced) != block_digest(traced):
        problems.append(f"traced digest {block_digest(traced)} differs from "
                        f"untraced {block_digest(untraced)}")
    s = tracer.summary()
    overhead = (sum(o.seconds for o in traced)
                - sum(o.seconds for o in untraced))
    m = layer_metrics(s, tracer.counts, traced, wall, overhead, wl.op_span)
    exact = {k: v for k, v in m.items() if k.endswith(".calls")}
    exact.update({k: v for k, v in sorted(tracer.counts.items())})
    exact["digest"] = block_digest(traced)
    problems += records.check_counts(seed_base, exact)

    RUNS.mkdir(exist_ok=True)
    tracer.save(str(RUNS / f"spans-{wl.name}-{seed_base}.npz"))
    top = sum(v["top_s"] for v in s.values())
    base_s = sum(o.seconds for o in untraced)
    print(f"traced pass  {wall:.3f} s wall; top-level spans cover "
          f"{top:.3f} s, uncovered {wall - top:.3f} s "
          f"({(wall - top) / wall:.2%})")
    print(f"overhead     {overhead:+.3f} s = traced minus untraced operation "
          f"time ({overhead / base_s:+.1%} of {base_s:.3f} s)")
    print(f"digest       {block_digest(traced)} traced, "
          f"{block_digest(untraced)} untraced")
    print(f"{'span':<36} {'calls':>9} {'self_s':>10} {'share':>7} "
          f"{'total_s':>10}")
    for name, v in sorted(s.items(), key=lambda kv: -kv[1]["self_s"]):
        if v["calls"]:
            print(f"{name:<36} {v['calls']:>9} {v['self_s']:>10.4f} "
                  f"{v['self_s'] / wall:>7.1%} {v['total_s']:>10.4f}")
    return outcomes, problems, outcomes, {
        name: {"value": m[name], "unit": unit}
        for name, unit in metric_units("per_layer").items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        mp = import_program()
    except ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed_base = wl.seed_offset + args.seed
    env = environment(mp, seed_base)
    print(f"workload     {wl.name}, seed base {seed_base}, "
          f"{'traced' if args.trace else 'timed'} run, block of "
          f"{wl.trace_block if args.trace else wl.block} seeds, closed loop "
          f"in one process")
    print("environment  " + json.dumps(env, sort_keys=True))
    records = Records(wl.name, env["source"])
    if args.trace:
        outcomes, problems, counted, metrics = run_traced(
            mp, wl, seed_base, records)
    else:
        outcomes, problems, counted, metrics = run_timed(
            mp, wl, seed_base, args.seconds, records)
    records.save()
    for p in problems:
        print(f"CHECK FAILED {p}")
    if not problems:
        print(f"checks       all passed on {len(outcomes)} operations")
    failed = sum(1 for o in counted if o.error or o.problems)
    print(json.dumps({"correct": not problems, "attempted": len(counted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
