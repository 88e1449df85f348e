"""Exact event-driven simulation of the order-book Markov chain.

`step()` drives the transition rules of `model.enumerate_events` and
`apply_event` directly and is the reference. `_Core`, the engine behind
`simulate` and `empirical_equilibrium`, keeps B = sum b, S = sum s and
M = sum min(b, s) as integers, so its closed-form total rate never drifts;
the tests replay it event by event against `step()`.

Per-event draw contract: one `standard_exponential()` over the total rate
is the holding time; if the event falls before the horizon, one `random()`
times that total is walked over the canonical order (arrivals, then trades,
buyer quits, seller quits, buyer alpha-moves with the top exit at level N,
seller alpha-moves with the bottom exit at level 1, each block over levels
1..N); a target at or past the end (float summation) fires the last
positive-rate event. Replica streams are `SeedSequence` spawn keys `(i, j)`
(replica j at the i-th scaling level).

Per-trader rates fall like 1/L while the horizon in scaled time tau covers
t in [0, tau * L], so one unit of tau costs O(L) events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvariantViolation
from .model import (
    DiscreteState,
    Event,
    FluidState,
    ModelParams,
    ScalingLevel,
    apply_event,
    enumerate_events,
)

__all__ = ["EventCounters", "Trajectory", "step", "simulate",
           "empirical_equilibrium", "initial_discrete_state"]

DEFAULT_MAX_EVENTS = 50_000_000


@dataclass
class EventCounters:
    """Cumulative event tallies over a simulation window.

    trades[k], buyer_quits[k], seller_quits[k] count per (0-based) level.
    buyer_moves[k] counts moves from level k to k+1 (last entry unused);
    seller_moves[k] counts moves from level k to k-1 (entry 0 unused).
    Boundary alpha-departures are tallied separately in buyer_exit_top /
    seller_exit_bottom, not folded into the quit counters.
    """

    trades: np.ndarray
    buyer_quits: np.ndarray
    seller_quits: np.ndarray
    buyer_moves: np.ndarray
    seller_moves: np.ndarray
    buyer_arrivals: int
    seller_arrivals: int
    buyer_exit_top: int
    seller_exit_bottom: int

    @classmethod
    def zeros(cls, n: int) -> "EventCounters":
        z = lambda: np.zeros(n, dtype=np.int64)
        return cls(z(), z(), z(), z(), z(), 0, 0, 0, 0)

    def conservation_defects(
        self, initial: DiscreteState, final: DiscreteState
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-level defects of the buyer/seller counting identities.

        Both arrays are identically zero on every correctly simulated window:
        b_k(t') - b_k(t) = inflow - trades - outflow - quits, where the
        inflow at level 1 is the exogenous arrival count and the outflow at
        level N is the top exit (mirrored for sellers).
        """
        n = initial.n_levels
        db = np.empty(n, dtype=np.int64)
        ds = np.empty(n, dtype=np.int64)
        for k in range(n):
            b_in = self.buyer_arrivals if k == 0 else self.buyer_moves[k - 1]
            b_out = self.buyer_exit_top if k == n - 1 else self.buyer_moves[k]
            db[k] = (final.b[k] - initial.b[k]
                     - (b_in - self.trades[k] - b_out - self.buyer_quits[k]))
            s_in = self.seller_arrivals if k == n - 1 else self.seller_moves[k + 1]
            s_out = self.seller_exit_bottom if k == 0 else self.seller_moves[k]
            ds[k] = (final.s[k] - initial.s[k]
                     - (s_in - self.trades[k] - s_out - self.seller_quits[k]))
        return db, ds

    def conserves(self, initial: DiscreteState, final: DiscreteState) -> bool:
        db, ds = self.conservation_defects(initial, final)
        return not (db.any() or ds.any())


@dataclass
class Trajectory:
    """Sampled scaled path of one simulation run.

    x and y have one row per sample time; row i is the scaled state at
    taus[i] (the state immediately before any event at exactly that instant).
    """

    taus: np.ndarray
    x: np.ndarray
    y: np.ndarray
    initial_state: DiscreteState
    final_state: DiscreteState
    counters: EventCounters
    scale: ScalingLevel
    seed: int | np.random.SeedSequence
    n_events: int

    def state_at(self, i: int) -> FluidState:
        return FluidState(self.x[i], self.y[i])


def initial_discrete_state(
    x0: np.ndarray, y0: np.ndarray, scale: ScalingLevel
) -> DiscreteState:
    """Round half-up of L*x0, L*y0 (the fluid limit only needs the initial
    states to converge in probability, so any consistent rounding works)."""
    L = scale.l
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    return DiscreteState(np.floor(L * x0 + 0.5).astype(np.int64),
                         np.floor(L * y0 + 0.5).astype(np.int64))


def step(
    state: DiscreteState,
    params: ModelParams,
    scale: ScalingLevel,
    rng: np.random.Generator,
) -> tuple[Event, float, DiscreteState]:
    """One exact CTMC step: exponential holding time at the total rate, then
    a categorical event draw over the canonical order."""
    events = enumerate_events(state, params, scale)
    total = sum(e.rate for e in events)
    holding = rng.standard_exponential() / total
    target = rng.random() * total
    chosen = events[-1]
    for e in events:
        if target < e.rate:
            chosen = e
            break
        target -= e.rate
    return chosen, holding, apply_event(state, chosen)


class _Core:
    """Mutable simulation state with incrementally maintained aggregates.

    Occupancies are plain Python ints (the loop is pure Python; small numpy
    arrays would dominate the per-event cost). Aggregate sums B, S, M are
    integers, so block rates are recomputed exactly at every step.
    """

    def __init__(self, params: ModelParams, scale: ScalingLevel,
                 init: DiscreteState):
        self.params = params
        self.scale = scale
        self.initial = init
        self.n = params.n_levels
        self.b = [int(v) for v in init.b]
        self.s = [int(v) for v in init.s]
        self.B = sum(self.b)
        self.S = sum(self.s)
        self.mins = [min(bk, sk) for bk, sk in zip(self.b, self.s)]
        self.M = sum(self.mins)
        self.rt = params.gamma / scale.l
        self.rq = params.beta / scale.l
        self.rm = params.alpha / scale.l
        self.counters = EventCounters.zeros(self.n)

    def state(self) -> DiscreteState:
        return DiscreteState(np.array(self.b, dtype=np.int64),
                             np.array(self.s, dtype=np.int64))

    def total_rate(self) -> float:
        p = self.params
        return (p.lambda_b + p.lambda_s
                + (self.rq + self.rm) * (self.B + self.S) + self.rt * self.M)

    def _refresh_min(self, k: int) -> None:
        m = min(self.b[k], self.s[k])
        self.M += m - self.mins[k]
        self.mins[k] = m

    def fire(self, target: float) -> None:
        """Apply the event selected by walking the canonical order with
        `target` in [0, total_rate); a target at or past the end fires the
        last positive-rate event."""
        n, b, s, c = self.n, self.b, self.s, self.counters
        p = self.params
        if target < p.lambda_b:
            b[0] += 1
            self.B += 1
            self._refresh_min(0)
            c.buyer_arrivals += 1
            return
        target -= p.lambda_b
        if target < p.lambda_s or (self.B == 0 and self.S == 0):
            s[n - 1] += 1
            self.S += 1
            self._refresh_min(n - 1)
            c.seller_arrivals += 1
            return
        target -= p.lambda_s

        block = self.rt * self.M
        if target < block and self.M > 0:
            k = self._walk(self.mins, self.rt, target)
            b[k] -= 1
            s[k] -= 1
            self.B -= 1
            self.S -= 1
            self._refresh_min(k)
            c.trades[k] += 1
            return
        target -= block

        block = self.rq * self.B
        if target < block and self.B > 0:
            k = self._walk(b, self.rq, target)
            b[k] -= 1
            self.B -= 1
            self._refresh_min(k)
            c.buyer_quits[k] += 1
            return
        target -= block

        block = self.rq * self.S
        if target < block and self.S > 0:
            k = self._walk(s, self.rq, target)
            s[k] -= 1
            self.S -= 1
            self._refresh_min(k)
            c.seller_quits[k] += 1
            return
        target -= block

        # on overshoot with no sellers (then B > 0: an empty book fired the
        # seller arrival) the buyer alpha block is the last nonempty one
        block = self.rm * self.B
        if (target < block and self.B > 0) or self.S == 0:
            k = self._walk(b, self.rm, target)
            b[k] -= 1
            self.B -= 1
            self._refresh_min(k)
            if k < n - 1:
                b[k + 1] += 1
                self.B += 1
                self._refresh_min(k + 1)
                c.buyer_moves[k] += 1
            else:
                c.buyer_exit_top += 1
            return
        target -= block

        # seller alpha block (exit at level 1, then moves k -> k-1); S > 0
        # here, and _walk returns the last occupied level on overshoot
        k = self._walk(s, self.rm, target)
        s[k] -= 1
        self.S -= 1
        self._refresh_min(k)
        if k > 0:
            s[k - 1] += 1
            self.S += 1
            self._refresh_min(k - 1)
            c.seller_moves[k] += 1
        else:
            c.seller_exit_bottom += 1

    @staticmethod
    def _walk(occ: list, unit: float, target: float) -> int:
        last = -1
        for k, v in enumerate(occ):
            if v > 0:
                rk = unit * v
                if target < rk:
                    return k
                target -= rk
                last = k
        return last


def _run(
    core: _Core,
    t_end: float,
    sample_ts: list[float],
    rng: np.random.Generator,
    max_events: int,
) -> tuple[list[list[float]], list[list[float]], int]:
    """Advance the chain to t_end, recording scaled states at sample_ts,
    then verify the counter conservation identities exactly."""
    L = float(core.scale.l)
    xs: list[list[float]] = []
    ys: list[list[float]] = []
    si = 0
    m = len(sample_ts)
    t = 0.0
    n_events = 0
    exp = rng.standard_exponential
    uni = rng.random
    while t < t_end:
        rate = core.total_rate()
        t_next = t + exp() / rate
        while si < m and sample_ts[si] <= t_next:
            xs.append([v / L for v in core.b])
            ys.append([v / L for v in core.s])
            si += 1
        if t_next >= t_end:
            break
        n_events += 1
        if n_events > max_events:
            raise BudgetExceeded(
                f"event budget {max_events} exhausted at t={t_next:.6g}"
            )
        core.fire(uni() * rate)
        t = t_next
    while si < m:
        xs.append([v / L for v in core.b])
        ys.append([v / L for v in core.s])
        si += 1
    db, ds = core.counters.conservation_defects(core.initial, core.state())
    if db.any() or ds.any():
        raise InvariantViolation(
            f"conservation defect: buyers {db}, sellers {ds}")
    return xs, ys, n_events


def simulate(
    params: ModelParams,
    scale: ScalingLevel,
    x0: np.ndarray,
    y0: np.ndarray,
    tau_max: float,
    sample_dt: float,
    seed,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Trajectory:
    """Simulate the scaled process over tau in [0, tau_max].

    The chain runs in unscaled time over [0, tau_max * L]; scaled states are
    recorded every sample_dt of tau (including tau = 0). Counter conservation
    identities are verified exactly before returning.
    """
    if tau_max < 0:
        raise ValueError("tau_max must be >= 0")
    if sample_dt <= 0:
        raise ValueError("sample_dt must be > 0")
    rng = np.random.default_rng(seed)
    init = initial_discrete_state(np.asarray(x0), np.asarray(y0), scale)
    if init.n_levels != params.n_levels:
        raise ValueError("initial state dimension does not match n_levels")
    core = _Core(params, scale, init)
    n_samples = int(np.floor(tau_max / sample_dt + 1e-9)) + 1
    taus = np.arange(n_samples) * sample_dt
    L = float(scale.l)
    sample_ts = [tau * L for tau in taus]
    xs, ys, n_events = _run(core, tau_max * L, sample_ts, rng, max_events)
    return Trajectory(
        taus=taus,
        x=np.array(xs, dtype=np.float64),
        y=np.array(ys, dtype=np.float64),
        initial_state=init,
        final_state=core.state(),
        counters=core.counters,
        scale=scale,
        seed=seed,
        n_events=n_events,
    )


def empirical_equilibrium(
    params: ModelParams,
    scale: ScalingLevel,
    burn_in: float,
    n_samples: int,
    sample_gap: float,
    seed,
) -> list[FluidState]:
    """Equilibrium samples of the scaled state from one long run.

    The chain starts empty and is sampled every sample_gap of tau after a
    burn-in period; ergodicity makes the starting state irrelevant for long
    enough burn-in, which is the only equilibrium approximation used here.
    """
    if burn_in <= 0 or sample_gap <= 0:
        raise ValueError("burn_in and sample_gap must be > 0")
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if n_samples == 0:
        return []
    rng = np.random.default_rng(seed)
    n = params.n_levels
    init = DiscreteState(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    core = _Core(params, scale, init)
    L = float(scale.l)
    sample_ts = [(burn_in + (i + 1) * sample_gap) * L for i in range(n_samples)]
    xs, ys, _ = _run(core, sample_ts[-1], sample_ts, rng, DEFAULT_MAX_EVENTS)
    return [FluidState(np.array(x), np.array(y)) for x, y in zip(xs, ys)]
