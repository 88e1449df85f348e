"""Exact event-driven simulation of the order-book Markov chain.

`step()` drives the transition rules of `model.enumerate_events` and
`apply_event` directly and is the reference. `_run`, the engine behind
`simulate` and `empirical_equilibrium`, restates those rules in one loop on
plain Python ints; it keeps B = sum b, S = sum s and M = sum min(b, s) as
integers, so its closed-form total rate never drifts. The tests replay it
event by event against `step()`. It records each sample by copying the
counts into two `array("d")` buffers, as doubles and at C level, and scales
them once in place at the end: no Python object per sample outlives its
copy, so a run's samples take little more memory than the arrays returned.

Draw contract: a replica's randomness is one stream of uniform doubles
u_1, u_2, ... from `Generator.random`. Event i takes u_(2i-1) for its
holding time -log1p(-u)/rate and, if it falls before the horizon, u_(2i)
for its selection: u times the total rate is walked over the canonical
order of `model.enumerate_events` (arrivals, then trades, buyer quits,
seller quits, buyer alpha-moves with the top exit at level N, seller
alpha-moves with the bottom exit at level 1); a target at or past the end
(float summation) fires the last positive-rate event. Trades and the buyer
blocks walk levels 1..N, the seller blocks N..1: buyers enter at level 1
and sellers at level N, and the stationary profile decays geometrically
away from each entry level, so starting there keeps the expected walk
short at any N. The engine takes the stream as (holding, selection) pairs,
CHUNK pairs (2 * CHUNK uniforms) per generator call, so no pair spans two
calls; for PCG64, random(a) followed by random(b) gives the values of
random(a + b), so no output depends on CHUNK. The holding column goes
through `math.log1p`, never `np.log1p`, whose vectorised form differs from
it in the last bit on some machines. One level walk serves all five level
blocks (trades, quits and alpha-moves of either side): it tests the
block's first level in walk order, then skips empty levels, making the
same subtractions in the same order as a walk over every level, so it
picks the same level. Replica streams are
`SeedSequence` spawn keys `(i, j)` (replica j at the i-th scaling level).

Per-trader rates fall like 1/L while the horizon in scaled time tau covers
t in [0, tau * L], so one unit of tau costs O(L) events.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, compress, repeat
from math import inf, isfinite, log1p

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
from .ode import uniform_grid

__all__ = ["EventCounters", "Trajectory", "step", "simulate",
           "empirical_equilibrium", "initial_discrete_state"]

DEFAULT_MAX_EVENTS = 50_000_000
CHUNK = 1024  # (holding, selection) pairs per generator call

# the engine's level blocks, in canonical order
_TRADE, _BUYER_QUIT, _SELLER_QUIT, _BUYER_MOVE, _SELLER_MOVE = range(5)


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
    n_events: int


def initial_discrete_state(
    x0: np.ndarray, y0: np.ndarray, scale: ScalingLevel
) -> DiscreteState:
    """Round half-up of L*x0, L*y0 (the fluid limit only needs the initial
    states to converge in probability, so any consistent rounding works).

    Raises ValueError unless every |L*x0|, |L*y0| is below 2**62, so the
    rounded counts fit in int64.
    """
    L = scale.l
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    for name, v in (("x0", x0), ("y0", y0)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got {v.tolist()}")
        # divided, not multiplied, so a huge value cannot overflow to inf
        if (np.abs(v) >= 2.0**62 / L).any():
            raise ValueError(f"{name} times the scale L = {L} must stay below "
                             f"2**62 in size, got {name} = {v.tolist()}")
    return DiscreteState(np.floor(L * x0 + 0.5).astype(np.int64),
                         np.floor(L * y0 + 0.5).astype(np.int64))


def step(
    state: DiscreteState,
    params: ModelParams,
    scale: ScalingLevel,
    rng: np.random.Generator,
) -> tuple[Event, float, DiscreteState]:
    """One exact CTMC step on two uniforms (the module's draw contract):
    exponential holding time at the total rate, then a categorical event
    draw over the canonical order."""
    events = enumerate_events(state, params, scale)
    total = sum(e.rate for e in events)
    holding = -log1p(-rng.random()) / total
    target = rng.random() * total
    chosen = events[-1]
    for e in events:
        if target < e.rate:
            chosen = e
            break
        target -= e.rate
    return chosen, holding, apply_event(state, chosen)


def _chunk_pairs(rng) -> zip:
    """CHUNK (log1p(-u_hold), u_pick) pairs from one generator call."""
    u = rng.random(2 * CHUNK)
    return zip(map(log1p, (-u[0::2]).tolist()), u[1::2].tolist())


def _run(
    params: ModelParams,
    scale: ScalingLevel,
    init: DiscreteState,
    t_end: float,
    sample_ts: list[float],
    rng: np.random.Generator,
    max_events: int,
) -> tuple[np.ndarray, np.ndarray, int, DiscreteState, EventCounters]:
    """Advance the chain from init to t_end, recording scaled states at
    sample_ts, then verify the aggregates and the counter conservation
    identities exactly. Returns (x, y, n_events, final state, counters);
    row i of x and y is the scaled state at sample_ts[i].

    Occupancies are plain Python ints (the loop is pure Python; small numpy
    arrays would dominate the per-event cost), and the aggregates B, S, M
    are integers updated by the +-1 increments, so the total rate is exact
    at every step. Samples go into `array("d")` buffers as doubles, through
    `fromlist`, which grows a buffer once per sample where `extend` grows it
    once per count; x and y are numpy views of the buffers, divided by L in
    place, which converts and divides exactly as
    `np.array(samples, dtype=np.float64) / L` would.
    """
    n = params.n_levels
    top = n - 1
    L = float(scale.l)
    lam_b = params.lambda_b
    lam_s = params.lambda_s
    lam = lam_b + lam_s
    rt = params.gamma / scale.l
    rq = params.beta / scale.l
    rm = params.alpha / scale.l
    rqm = rq + rm
    b = [int(v) for v in init.b]
    s = [int(v) for v in init.s]
    B, S, M = sum(b), sum(s), sum(map(min, b, s))
    trades = [0] * n
    buyer_quits = [0] * n
    seller_quits = [0] * n
    buyer_moves = [0] * n
    seller_moves = [0] * n
    buyer_arrivals = seller_arrivals = exit_top = exit_bottom = 0

    xs = array("d")
    ys = array("d")
    si = 0
    m = len(sample_ts)
    next_sample = sample_ts[0] if m else inf
    t = 0.0
    n_events = 0
    ranks = range(n)
    downward = range(top, -1, -1)
    for hold, pick in chain.from_iterable(map(_chunk_pairs, repeat(rng))):
        rate = lam + rqm * (B + S) + rt * M
        t_next = t - hold / rate
        if t_next >= next_sample:
            while si < m and sample_ts[si] <= t_next:
                xs.fromlist(b)
                ys.fromlist(s)
                si += 1
            next_sample = sample_ts[si] if si < m else inf
        if t_next >= t_end:
            break
        n_events += 1
        if n_events > max_events:
            raise BudgetExceeded(
                f"event budget {max_events} exhausted at t={t_next:.6g}"
            )
        target = pick * rate
        t = t_next

        # walk the canonical order; a target at or past the end fires the
        # last positive-rate event
        if target < lam_b:
            b[0] += 1
            B += 1
            if b[0] <= s[0]:
                M += 1
            buyer_arrivals += 1
            continue
        target -= lam_b
        if target < lam_s or not (B or S):
            s[top] += 1
            S += 1
            if s[top] <= b[top]:
                M += 1
            seller_arrivals += 1
            continue
        target -= lam_s

        # pick the level block (its per-level occupancies occ, per-unit
        # rate and first level in walk order), then the level within it. On
        # overshoot with no sellers (then B > 0: an empty book fired the
        # seller arrival) the buyer alpha block is the last nonempty one,
        # and otherwise the seller alpha block is; within a block, the last
        # occupied level in walk order
        block = rt * M
        if target < block and M:
            kind, occ, unit, first = _TRADE, list(map(min, b, s)), rt, 0
        else:
            target -= block
            block = rq * B
            if target < block and B:
                kind, occ, unit, first = _BUYER_QUIT, b, rq, 0
            else:
                target -= block
                block = rq * S
                if target < block and S:
                    kind, occ, unit, first = _SELLER_QUIT, s, rq, top
                else:
                    target -= block
                    block = rm * B
                    if (target < block and B) or not S:
                        kind, occ, unit, first = _BUYER_MOVE, b, rm, 0
                    else:
                        target -= block
                        kind, occ, unit, first = _SELLER_MOVE, s, rm, top
        # the walk starts at the block's first level (1 for trades and the
        # buyer blocks, N for the seller blocks); a trader block's first
        # level is its entry level, where most of its rate sits near
        # equilibrium, so test that level before building a walk. A miss
        # there walks again from it, making the same comparison and
        # subtraction; the walk skips empty levels
        if target < unit * occ[first]:
            k = first
        else:
            last = -1
            for k in (compress(downward, reversed(occ)) if first
                      else compress(ranks, occ)):
                w = unit * occ[k]
                if target < w:
                    break
                target -= w
                last = k
            else:
                k = last

        # the +-1 increments; min(b, s) moves with b exactly when b <= s
        # after a buyer arrives, and when b < s after one leaves (mirrored
        # for sellers)
        if kind == _TRADE:
            b[k] -= 1
            s[k] -= 1
            B -= 1
            S -= 1
            M -= 1
            trades[k] += 1
        elif kind == _BUYER_QUIT:
            b[k] -= 1
            B -= 1
            if b[k] < s[k]:
                M -= 1
            buyer_quits[k] += 1
        elif kind == _SELLER_QUIT:
            s[k] -= 1
            S -= 1
            if s[k] < b[k]:
                M -= 1
            seller_quits[k] += 1
        elif kind == _BUYER_MOVE:
            b[k] -= 1
            if b[k] < s[k]:
                M -= 1
            if k < top:
                buyer_moves[k] += 1
                k += 1
                b[k] += 1
                if b[k] <= s[k]:
                    M += 1
            else:
                B -= 1
                exit_top += 1
        else:
            s[k] -= 1
            if s[k] < b[k]:
                M -= 1
            if k > 0:
                seller_moves[k] += 1
                k -= 1
                s[k] += 1
                if s[k] <= b[k]:
                    M += 1
            else:
                S -= 1
                exit_bottom += 1
    while si < m:
        xs.fromlist(b)
        ys.fromlist(s)
        si += 1

    if (B, S, M) != (sum(b), sum(s), sum(map(min, b, s))):
        raise InvariantViolation(
            f"aggregate drift: B={B}, S={S}, M={M} for b={b}, s={s}")
    final = DiscreteState(np.array(b, dtype=np.int64),
                          np.array(s, dtype=np.int64))
    i64 = lambda v: np.array(v, dtype=np.int64)
    counters = EventCounters(i64(trades), i64(buyer_quits), i64(seller_quits),
                             i64(buyer_moves), i64(seller_moves),
                             buyer_arrivals, seller_arrivals,
                             exit_top, exit_bottom)
    db, ds = counters.conservation_defects(init, final)
    if db.any() or ds.any():
        raise InvariantViolation(
            f"conservation defect: buyers {db}, sellers {ds}")
    x = np.frombuffer(xs).reshape(m, n)
    y = np.frombuffer(ys).reshape(m, n)
    x /= L
    y /= L
    return x, y, n_events, final, counters


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
    recorded at `ode.uniform_grid(tau_max, sample_dt)`: every sample_dt of
    tau from 0, the last time clamped to tau_max. Counter conservation
    identities are verified exactly before returning.
    """
    taus = uniform_grid(tau_max, sample_dt)
    rng = np.random.default_rng(seed)
    init = initial_discrete_state(np.asarray(x0), np.asarray(y0), scale)
    if init.n_levels != params.n_levels:
        raise ValueError("initial state dimension does not match n_levels")
    L = float(scale.l)
    sample_ts = [tau * L for tau in taus]
    x, y, n_events, final, counters = _run(
        params, scale, init, tau_max * L, sample_ts, rng, max_events)
    return Trajectory(
        taus=taus,
        x=x,
        y=y,
        initial_state=init,
        final_state=final,
        counters=counters,
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
    for name, v in (("burn_in", burn_in), ("sample_gap", sample_gap)):
        if not (isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and > 0, got {v}")
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if n_samples == 0:
        return []
    rng = np.random.default_rng(seed)
    n = params.n_levels
    init = DiscreteState(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    L = float(scale.l)
    sample_ts = [(burn_in + (i + 1) * sample_gap) * L for i in range(n_samples)]
    x, y, _, _, _ = _run(params, scale, init, sample_ts[-1], sample_ts, rng,
                         DEFAULT_MAX_EVENTS)
    return [FluidState(xi, yi) for xi, yi in zip(x, y)]
