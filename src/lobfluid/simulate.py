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
it in the last bit on some machines. Replica streams are `SeedSequence`
spawn keys `(i, j)` (replica j at the i-th scaling level).

Per event the engine does only the work that event needs: one clock
test, against the next sample time or the horizon, whichever comes first;
no budget test (the loop takes at most the budget's worth of pairs plus
one, and the budget ran out if that last pair falls before the horizon
too); and one dispatch, in which each block applies its +-1 increments
where it is picked. Each level block (trades, quits and alpha-moves of either side)
tests its entry level inline; only a miss there calls the one level walk,
`_walk`, which goes on level by level from the entry level's neighbour.
An empty level subtracts 0.0 and leaves the target unchanged, so every
comparison and subtraction is that of a walk over the occupied levels,
and the same level fires.

Per-trader rates fall like 1/L while the horizon in scaled time tau covers
t in [0, tau * L], so one unit of tau costs O(L) events.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from math import isfinite, log1p

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


def _walk(target: float, unit: float, occ: list[int], rest: range) -> int:
    """The level a selection target picks in a level block after missing
    the entry level: target is what is left once the entry level's weight
    is taken off, and rest holds the other levels in walk order.

    An empty level subtracts 0.0, which leaves the nonnegative target
    unchanged, so the walk makes the comparisons and subtractions of a walk
    over the occupied levels only. A target at or past the block's end
    (float summation) picks the last occupied level in walk order: the
    entry level, rest.start - rest.step, when no other level is occupied.
    """
    for k in rest:
        w = unit * occ[k]
        if target < w:
            return k
        target -= w
    last = rest.start - rest.step
    for last in compress(rest, map(occ.__getitem__, rest)):
        pass
    return last


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

    Per event the loop does only what the event needs. The clock moves in
    place and is tested once, against stop = min(next sample time, t_end),
    which changes only when samples are taken. The budget costs no test per
    event: the loop takes at most max_events + 1 pairs from the stream, and
    if the last of them also falls before t_end, it ends without reaching
    t_end and raises BudgetExceeded. n_events is counted on its own, so the
    counters' sum stays a check on it. Each level block applies its +-1 increments right
    where it is picked; its entry level is tested inline, and only a miss
    there calls `_walk`.
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
    stop = min(sample_ts[0], t_end) if m else t_end
    t = 0.0
    n_events = 0
    # the levels after the entry level in walk order: buyers and trades
    # walk up from level 1, sellers down from level N
    up = range(1, n)
    down = range(top - 1, -1, -1)
    # one pair past the budget decides it: an event there exhausts it. A
    # budget past islice's limit, sys.maxsize, is one no run can use up
    pairs = chain.from_iterable(map(_chunk_pairs, repeat(rng)))
    for hold, pick in islice(pairs, min(max_events + 1, sys.maxsize)):
        w_trade = rt * M  # the trade block's weight, a term of the rate
        rate = lam + rqm * (B + S) + w_trade
        t -= hold / rate
        if t >= stop:
            # samples at or before t take the state before this event; at
            # t_end every sample left takes the final state, after the loop
            if t >= t_end:
                break
            while si < m and sample_ts[si] <= t:
                xs.fromlist(b)
                ys.fromlist(s)
                si += 1
            stop = min(sample_ts[si], t_end) if si < m else t_end
        n_events += 1
        target = pick * rate

        # walk the canonical order; a target at or past the end fires the
        # last positive-rate event: the seller arrival on an empty book,
        # else the buyer alpha block when there are no sellers (then
        # B > 0), else the seller alpha block. min(b, s) moves with b
        # exactly when b <= s after a buyer arrives, and when b < s after
        # one leaves (mirrored for sellers). The target is never negative,
        # so an empty block (weight 0.0) is never picked by its test
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
        if target < w_trade:
            w = rt * min(b[0], s[0])
            k = 0 if target < w else _walk(target - w, rt,
                                           list(map(min, b, s)), up)
            b[k] -= 1
            s[k] -= 1
            B -= 1
            S -= 1
            M -= 1
            trades[k] += 1
            continue
        target -= w_trade
        w = rq * B
        if target < w:
            w = rq * b[0]
            k = 0 if target < w else _walk(target - w, rq, b, up)
            b[k] -= 1
            B -= 1
            if b[k] < s[k]:
                M -= 1
            buyer_quits[k] += 1
            continue
        target -= w
        w = rq * S
        if target < w:
            w = rq * s[top]
            k = top if target < w else _walk(target - w, rq, s, down)
            s[k] -= 1
            S -= 1
            if s[k] < b[k]:
                M -= 1
            seller_quits[k] += 1
            continue
        target -= w
        w = rm * B
        if target < w or not S:
            w = rm * b[0]
            k = 0 if target < w else _walk(target - w, rm, b, up)
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
            continue
        target -= w
        w = rm * s[top]
        k = top if target < w else _walk(target - w, rm, s, down)
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
    else:
        raise BudgetExceeded(
            f"event budget {max_events} exhausted at t={t:.6g}")
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
    tau from 0, and tau_max last. Counter conservation identities are
    verified exactly before returning.
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
