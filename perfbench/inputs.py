"""Seeded input generators, one per workload.

Every generator is a pure function of (seed, n_ops) and returns plain Python
data (ints, floats, lists), so the program under test receives only the
generated inputs and two runs with the same seed see the same inputs.

Continuous parameters are drawn by Latin hypercube sampling: each
parameter's range is cut into n equal-probability strata and one value is
drawn inside each. Which strata of different parameters share a draw is a
fixed design (DESIGN_SEED); the workload seed moves every value inside its
stratum. The marginal distribution is exactly the one named in the
workload. What the fixed design removes is the run-to-run swing in cost
that comes from a batch happening to pair, say, large N with slow rates
more often than another seed's batch does, which would otherwise move the
medians more than the program does.
"""

from __future__ import annotations

import math

import numpy as np

# Each run executes its batch PASSES times and keeps every operation's
# fastest execution: on a shared machine whose speed drifts by tens of
# percent over tens of seconds, the minimum over passes spread across the
# run tracks the program and not the neighbours.
PASSES = 3
# Per-operation cost at the seed commit on a 2-core Xeon, used only to turn
# --seconds into a batch size; the same size is used on every commit, so a
# faster program finishes its batch sooner rather than doing more work.
NOMINAL_OP_S = {
    "study": 5.5,
    "longchain": 2.9,
    "agreement": 0.22,
    "solver-range": 0.1,
}


def op_count(workload: str, seconds: float) -> int:
    """Batch size of a run of `seconds` (each operation runs PASSES times)."""
    return max(1, round(seconds / (PASSES * NOMINAL_OP_S[workload])))


DESIGN_SEED = 20240601


class Sampler:
    """Stratified uniforms: fixed stratum order per call, seeded offsets."""

    def __init__(self, workload_key: int, seed: int):
        self.design = np.random.default_rng([DESIGN_SEED, workload_key])
        self.rng = np.random.default_rng([seed, workload_key])

    def strata(self, n: int) -> np.ndarray:
        """n uniforms on [0, 1), one in each stratum [i/n, (i+1)/n)."""
        return (self.design.permutation(n) + self.rng.random(n)) / n


def log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Map uniforms on [0, 1) to log-uniform values on [lo, hi)."""
    return np.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u)


def _cli_seeds(seed: int, workload_key: int, n_ops: int) -> list[dict]:
    rng = np.random.default_rng([seed, workload_key])
    return [{"seed": int(s)} for s in rng.integers(0, 2**31 - 1, size=n_ops)]


def study_inputs(seed: int, n_ops: int) -> list[dict]:
    """One `lobfluid converge` seed per operation; the arguments are fixed."""
    return _cli_seeds(seed, 1, n_ops)


def longchain_inputs(seed: int, n_ops: int) -> list[dict]:
    """One `lobfluid simulate` seed per operation; the arguments are fixed."""
    return _cli_seeds(seed, 2, n_ops)


def agreement_inputs(seed: int, n_ops: int) -> list[dict]:
    """Criterion-02 parameter sets (N in 1..10, rates log-uniform on
    [0.1, 10]) plus one criterion-05 ordered pair and horizon each."""
    sample = Sampler(3, seed)
    rng = sample.rng
    n_levels = 1 + np.floor(10 * sample.strata(n_ops)).astype(int)
    rates = {k: log_uniform(sample.strata(n_ops), 0.1, 10.0)
             for k in ("lambda_b", "lambda_s", "alpha", "beta", "gamma")}
    tau_max = 5.0 + 45.0 * sample.strata(n_ops)
    ops = []
    for i in range(n_ops):
        n = int(n_levels[i])
        x_low = rng.uniform(0, 2, n)
        y_low = rng.uniform(0, 2, n)
        ops.append({
            "params": [n] + [float(rates[k][i]) for k in
                             ("lambda_b", "lambda_s", "alpha", "beta", "gamma")],
            "pair_a": [x_low.tolist(), (y_low + rng.uniform(0, 2, n)).tolist()],
            "pair_b": [(x_low + rng.uniform(0, 2, n)).tolist(), y_low.tolist()],
            "tau_max": float(tau_max[i]),
        })
    return ops


def solver_range_inputs(seed: int, n_ops: int) -> list[dict]:
    """Parameter sets over the range the model admits.

    One draw in 8 has beta = 0 and unbalanced arrivals, one in 30 (at least
    two) has beta = 0 and balanced arrivals (lambda_s = lambda_b), the rest
    have beta > 0. Over all draws N is log-uniform on [1, 1000], the arrival
    ratio lambda_s/lambda_b log-uniform on [1e-6, 1e6] (except the balanced
    draws), gamma/alpha log-uniform on [0.1, 1e4], and alpha, beta and
    lambda_b log-uniform on [0.1, 10].

    The balanced beta = 0 draws are where solve_recursive runs its full
    10,000 sweeps and raises NoConvergence, at a cost linear in N that
    dominates the run. Their N values sit at the midpoints of their
    log-strata instead of at random points inside them, so that this cost
    is the same in every run; their other parameters are random.
    """
    sample = Sampler(4, seed)
    n_bal = max(2, n_ops // 30)
    n_beta0 = n_ops // 8
    n_gen = n_ops - n_bal - n_beta0
    kinds = ["general"] * n_gen + ["beta0"] * n_beta0 + ["balanced"] * n_bal
    u_n = np.concatenate([sample.strata(n_gen), sample.strata(n_beta0),
                          (np.arange(n_bal) + 0.5) / n_bal])
    n_levels = np.maximum(1, np.rint(log_uniform(u_n, 1.0, 1000.0))).astype(int)
    alpha = log_uniform(sample.strata(n_ops), 0.1, 10.0)
    gamma = alpha * log_uniform(sample.strata(n_ops), 0.1, 1e4)
    beta = log_uniform(sample.strata(n_ops), 0.1, 10.0)
    lambda_b = log_uniform(sample.strata(n_ops), 0.1, 10.0)
    ratio = log_uniform(sample.strata(n_ops), 1e-6, 1e6)
    ops = []
    for i in sample.rng.permutation(n_ops):
        kind = kinds[i]
        b = float(beta[i]) if kind == "general" else 0.0
        ls = lambda_b[i] if kind == "balanced" else lambda_b[i] * ratio[i]
        ops.append({"kind": kind,
                    "params": [int(n_levels[i]), float(lambda_b[i]), float(ls),
                               float(alpha[i]), b, float(gamma[i])]})
    return ops


GENERATORS = {
    "study": study_inputs,
    "longchain": longchain_inputs,
    "agreement": agreement_inputs,
    "solver-range": solver_range_inputs,
}


def make_inputs(workload: str, seed: int, seconds: float) -> list[dict]:
    return GENERATORS[workload](seed, op_count(workload, seconds))
