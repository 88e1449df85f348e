"""Exact event-driven simulation of the order-book Markov chain.

`step()` drives the transition table `model.TRANSITIONS` through
`enumerate_events` and `apply_event` and is the reference, and
`EventCounters.conservation_defects` derives its identities from the
same table (`EventCounters`' fields are the tallies, one per kind in rank
order, and `TALLIES` names them by kind). `_run`, behind
`simulate` and `empirical_equilibrium`, runs one fast engine: the template
`_ENGINE`, whose event code `_engine_source` renders from the same table
and `_compiled_engine` compiles on first use. The ODE right-hand side,
written apart, is the independent check on the table (a test compares it
with the table's drift). Every rendering holds exact counts and keeps
B = sum b, S = sum s and M = sum min(b, s) exactly, so the closed-form
total rate never drifts, and every rendering makes the same comparisons
and float operations in the same order, so all give the same bits. The
tests replay each rendering event by event against `step()`, and compare
them bit for bit at every unrolled size. A sample is recorded by copying
the counts into two `array("d")` buffers, as doubles and at C level, and
`_run` scales them once in place at the end: no Python object per sample
outlives its copy, so a run's samples take little more memory than the
arrays returned.

Renderings: the template is rendered in two layouts, picked by `_run`
from the level count N (no option chooses them). Up to ENGINE_UNROLL_MAX
levels the book lives in locals: every b_k, s_k and per-level tally is a
local variable and each level block's walk is an elif chain over the
levels that ends in the past-the-end fallback, compiled once per N (1.1 ms
at N = 2, 6 ms at N = 16). Above it the book lives in lists, each level
block tests its entry level inline and then loops over the other levels
(`_LIST_WALK`), and the one list form is compiled once per process (about
2 ms). Both hold the counts as floats, which are exact below 2**53: `_run`
refuses an initial population of 2**53 or more and caps the budget so
that no count reaches it. On a 2-core Xeon (Python 3.11) the locals form
takes less time per event than the list form at N <= 16 (CHANGES.md has
the tables by N); nothing is compiled at import.

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
no budget test (the engine takes at most the budget's worth of pairs plus
one, and the budget ran out if that last pair falls before the horizon
too); and one dispatch, in which each block applies its +-1 increments
where it is picked. Each level block (trades, quits and alpha-moves of
either side) tests its entry level first, then the others level by level
in walk order. An empty level subtracts 0.0 and leaves the target
unchanged, so every comparison and subtraction is that of a walk over the
occupied levels, and the same level fires.

Per-trader rates fall like 1/L while the horizon in scaled time tau covers
t in [0, tau * L], so one unit of tau costs O(L) events.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass, fields
from itertools import groupby
from math import log1p
from operator import length_hint

import numpy as np

from .errors import BudgetExceeded, InvariantViolation
from .model import (
    TRANSITIONS,
    DiscreteState,
    Event,
    EventKind,
    FluidState,
    ModelParams,
    ScalingLevel,
    _count,
    _pair,
    _taken,
    apply_event,
    enumerate_events,
)
from .ode import _check_positive, uniform_grid

__all__ = ["EventCounters", "Trajectory", "step", "simulate",
           "empirical_equilibrium", "initial_discrete_state"]

DEFAULT_MAX_EVENTS = 50_000_000
CHUNK = 1024  # (holding, selection) pairs per generator call
ENGINE_UNROLL_MAX = 16  # level counts up to which the book lives in locals


@dataclass
class EventCounters:
    """Cumulative event tallies over a simulation window: the one statement
    of the tally layout, from which the engine renders its tallies. There
    is one field per EventKind, in rank order: an int tallies a kind, an
    array tallies it per (0-based) level it fires at.

    buyer_moves[k] counts moves from level k to k+1 (last entry unused);
    seller_moves[k] counts moves from level k to k-1 (entry 0 unused).
    Boundary alpha-departures are tallied separately in buyer_exit_top /
    seller_exit_bottom, not folded into the quit counters.
    """

    buyer_arrivals: int
    seller_arrivals: int
    trades: np.ndarray
    buyer_quits: np.ndarray
    seller_quits: np.ndarray
    buyer_moves: np.ndarray
    buyer_exit_top: int
    seller_moves: np.ndarray
    seller_exit_bottom: int

    @classmethod
    def zeros(cls, n: int) -> "EventCounters":
        return cls(*(0 if f.type == "int" else np.zeros(n, dtype=np.int64)
                     for f in fields(cls)))

    def conservation_defects(
        self, initial: DiscreteState, final: DiscreteState
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-level defects of the buyer/seller counting identities
        final - initial = sum of tally * increment over the rows of
        `model.TRANSITIONS`; both arrays are identically zero on every
        correctly simulated window."""
        n = initial.n_levels
        defects = (final.b - initial.b, final.s - initial.s)
        for kind, (_, levels, increments) in TRANSITIONS.items():
            ks = np.array(levels(n), dtype=np.intp)
            tally = getattr(self, TALLIES[kind])
            if isinstance(tally, np.ndarray):
                tally = tally[ks]
            for side, offset, sign in increments:
                defects[side][ks + offset] -= sign * tally
        return defects

    def conserves(self, initial: DiscreteState, final: DiscreteState) -> bool:
        db, ds = self.conservation_defects(initial, final)
        return not (db.any() or ds.any())


# The EventCounters field that tallies each event kind
TALLIES = dict(zip(EventKind, (f.name for f in fields(EventCounters)),
                   strict=True))


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

    Raises ValueError unless x0 and y0 are as many finite, nonnegative
    values each (`model._pair`; a small negative value would round to 0),
    and every L*x0, L*y0 is below 2**62, so the rounded counts fit in int64.
    """
    L = scale.l
    x0, y0 = _pair(x0, y0, np.size(x0))
    for name, v in (("x0", x0), ("y0", y0)):
        # divided, not multiplied, so a huge value cannot overflow to inf
        if (v >= 2.0**62 / L).any():
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


def _exhausted(max_events: int, t: float) -> BudgetExceeded:
    return BudgetExceeded(f"event budget {max_events} exhausted at t={t:.6g}")


# The engine's source, with {fields} filled in by _engine_source: the book
# (b{k}, s{k}, where {k} is a level's digits in the locals form and its
# index in the list form), the tallies (one local per EventCounters field,
# per level {k} of a per-level one), which it returns in rank order, and
# each block of the dispatch, rendered from `model.TRANSITIONS`. The
# counts are floats, which `_run` keeps exact (see `_compiled_engine`).
#
# Per event it does only what the event needs. The clock moves in place and
# is tested once, against stop = min(next sample time, t_end), which
# changes only when samples are taken. The budget costs no test per event:
# the engine takes at most max_events + 1 pairs, chunk by chunk, and if the
# last of them also falls before t_end it raises BudgetExceeded. n_events is
# the number of pairs consumed less the one that ended the run, counted
# apart from the tallies, so their sum stays a check on it. The dispatch
# walks the canonical order; a target at or past the end fires the last
# positive-rate event: the seller arrival on an empty book, else the buyer
# alpha block when there are no sellers (then B > 0), else the seller alpha
# block. The target is never negative, so an empty block (weight 0.0) is
# never picked by its test.
_ENGINE = '''\
def engine(rates, b, s, t_end, sample_ts, rng, max_events, chunk):
    lam_b, lam_s, lam, rt, rq, rm, rqm = rates
    B, S, M = map(float, (sum(b), sum(s), sum(map(min, b, s))))
    {bs} = [*map(float, b)]
    {ss} = [*map(float, s)]
    {tallies} = {zeros}
    # the list form's levels after the entry level, in walk order
    top = len(b) - 1
    up = range(1, len(b))
    down = range(top - 1, -1, -1)
    xs = array("d")
    ys = array("d")
    si = 0
    m = len(sample_ts)
    stop = min(sample_ts[0], t_end) if m else t_end
    t = 0.0
    done = 0
    left = max_events + 1
    while left:
        size = chunk if chunk < left else left
        u = rng.random(2 * chunk)[:2 * size]
        picks = iter(u[1::2].tolist())
        for hold, pick in zip(map(log1p, (-u[0::2]).tolist()), picks):
            w_trade = rt * M
            rate = lam + rqm * (B + S) + w_trade
            t -= hold / rate
            if t >= stop:
                if t >= t_end:
                    break
                while si < m and sample_ts[si] <= t:
                    xs.fromlist({bs})
                    ys.fromlist({ss})
                    si += 1
                stop = min(sample_ts[si], t_end) if si < m else t_end
            target = pick * rate
            if target < lam_b:
{buyer_arrival}
            elif (target := target - lam_b) < lam_s or not (B or S):
{seller_arrival}
            elif (target := target - lam_s) < w_trade:
{trade}
            elif (target := target - w_trade) < (w := rq * B):
{buyer_quit}
            elif (target := target - w) < (w := rq * S):
{seller_quit}
            elif (target := target - w) < (w := rm * B) or not S:
{buyer_move}
            else:
                target -= w
{seller_move}
        else:
            done += size
            left -= size
            continue
        break
    else:
        raise _exhausted(max_events, t)
    while si < m:
        xs.fromlist({bs})
        ys.fromlist({ss})
        si += 1
    # the pair that ended the run was drawn but fired no event
    n_events = done + size - length_hint(picks) - 1
    return (n_events, xs, ys, [*map(int, {bs})], [*map(int, {ss})],
            (int(B), int(S), int(M)), ({tallies}))
'''

# The engine's local for each level block's rate unit, the field over L
_UNITS = {"gamma": "rt", "beta": "rq", "alpha": "rm"}

# A level block's walk in the list form, which leaves the level it picks
# in k: the entry level inline, then the levels after it (`rest`, in walk
# order), each test subtracting the weight tested before it. A target at or
# past the block's end scans all levels back from the far edge (`back`) for
# the last occupied one in walk order; the scan ends at the entry level,
# which it picks when no other level is occupied.
_LIST_WALK = """\
k = {entry}
if not target < (w := {weight}):
    for k in {rest}:
        if (target := target - w) < (w := {weight}):
            break
    else:
        for k in {back}:
            if {occupied}:
                break"""


def _branch(test: str, body: str) -> str:
    """body under the clause test (`if ...`, `elif ...` or `else`)."""
    return f"{test}:\n    " + body.replace("\n", "\n    ")


def _indent(lines: str) -> str:
    """lines indented to sit in the engine's dispatch."""
    pad = " " * 16
    return pad + lines.replace("\n", "\n" + pad)


def _event(kind: EventKind, at) -> str:
    """Source that fires one event of kind, read off its row of
    `model.TRANSITIONS`; at(offset) is the suffix of b and s that names
    the level offset from the one it fires at. In order: the counts at
    that level, the side totals B and S by the row's net change on each
    side, M, the tally, and a move's destination count with its M test.
    M moves unconditionally when both sides change alike; else min(b, s)
    moves with b exactly when b <= s after a buyer arrives and when b < s
    after one leaves (mirrored for sellers)."""
    def add(name, sign):
        return f"{name} {'+-'[sign < 0]}= 1.0"

    def moves_min(side, sign, level):
        return (f"if {'bs'[side]}{level} {'<' if sign < 0 else '<='} "
                f"{'sb'[side]}{level}:\n    " + add("M", sign))

    increments = TRANSITIONS[kind][2]
    tally = fields(EventCounters)[kind]
    here = [(side, sign) for side, offset, sign in increments if not offset]
    nets = [sum(sign for s, _, sign in increments if s == side)
            for side in (0, 1)]
    lines = [add("bs"[side] + at(0), sign) for side, sign in here]
    lines += [add(total, net) for total, net in zip("BS", nets) if net]
    if len(here) == 2 and here[0][1] == here[1][1]:
        lines.append(add("M", here[0][1]))
    else:
        lines += [moves_min(side, sign, at(0)) for side, sign in here]
    lines.append(f"{tally.name}{'' if tally.type == 'int' else at(0)} += 1")
    for side, offset, sign in increments:
        if offset:
            lines += [add("bs"[side] + at(offset), sign),
                      moves_min(side, sign, at(offset))]
    return "\n".join(lines)


def _in_list(k: str, offset: int) -> str:
    """The list form's index of the level offset from level k."""
    return f"[{k} {'+-'[offset < 0]} {abs(offset)}]" if offset else f"[{k}]"


def _unrolled_walk(levels, weight: str, occupied: str, fire) -> str:
    """One level block's walk over levels (in walk order) as an elif
    chain, for the locals form.

    weight and occupied are source templates in {k} for level k's weight
    in the block and for "level k is occupied", and fire(k) is the source
    that fires the block's event at level k. Each test subtracts the
    weight tested before it, as the list form's walk does. The last
    level's test reduces to occupied, since a target below its weight
    implies a positive weight; from there on the chain is the fallback of
    a target at or past the end: the last occupied level in walk order,
    the entry level if no other is occupied. A block of one level always
    fires it.
    """
    if len(levels) == 1:
        return _indent(fire(levels[0]))
    first, *middle, last = levels
    w = weight.format
    lines = [_branch(f"if target < (w := {w(k=first)})", fire(first))]
    lines += [_branch(f"elif (target := target - w) < (w := {w(k=k)})",
                      fire(k)) for k in middle]
    lines += [_branch(f"elif {occupied.format(k=k)}", fire(k))
              for k in [last, *reversed(middle)]]
    lines.append(_branch("else", fire(first)))
    return _indent("\n".join(lines))


def _engine_source(n: int | None) -> str:
    """Source of the engine (see `_compiled_engine`): with the book in
    locals for n levels, or in lists for any level count when n is None.

    The dispatch's blocks are the rows of `model.TRANSITIONS` grouped by
    rate (field, and the sides `model._taken` reads off the increments),
    in rank order, which puts each alpha-move with the exit at its far
    edge. A block walks its rows' levels in row order, as the rows give
    them for n levels; the list form reads them for a book of two levels,
    where the first gives the block's entry level (0 or top) and so its
    direction. Its weight at a level (the rate unit times the smaller
    count of those sides) and the test that the level is occupied come
    from those sides.
    """
    blocks = {}
    for (field, sides), rows in groupby(
            TRANSITIONS.items(),
            key=lambda row: (row[1][0], _taken(row[1][2], ("b{k}", "s{k}")))):
        kinds = [kind for kind, _ in rows]
        name = kinds[0].name.lower()
        occupied = " and ".join(sides)
        count = ("(b{k} if b{k} < s{k} else s{k})" if len(sides) > 1
                 else occupied)
        # an arrival decrements no side: it fires at its one level, unwalked
        weight = f"{_UNITS[field]} * {count}" if sides else None
        if n is not None:
            kind_at = {k: kind for kind in kinds
                       for k in TRANSITIONS[kind][1](n)}
            blocks[name] = _unrolled_walk(
                [*kind_at], weight, occupied,
                lambda k: _event(kind_at[k], lambda o: str(k + o)))
            continue
        up = TRANSITIONS[kinds[0]][1](2)[0] == 0
        entry, rest, back = (("0", "up", "range(top, -1, -1)") if up
                             else ("top", "down", "range(top + 1)"))
        at = functools.partial(_in_list, "k" if weight else entry)
        fire, *leave = [_event(kind, at) for kind in kinds]
        if leave:
            fire = (_branch("if k < top" if up else "if k > 0", fire) + "\n"
                    + _branch("else", *leave))
        if weight:
            fire = _LIST_WALK.format(entry=entry, rest=rest, back=back,
                                     weight=weight.format(k="[k]"),
                                     occupied=occupied.format(k="[k]")
                                     ) + "\n" + fire
        blocks[name] = _indent(fire)
    names = ((lambda p: p) if n is None else
             lambda p: "[" + ", ".join(f"{p}{k}" for k in range(n)) + "]")
    tallies, zeros = zip(*(
        (f.name, "0") if f.type == "int" else (names(f.name), "[0] * len(b)")
        for f in fields(EventCounters)))
    return _ENGINE.format(bs=names("b"), ss=names("s"),
                          tallies=", ".join(tallies), zeros=", ".join(zeros),
                          **blocks)


@functools.cache
def _compiled_engine(n: int | None):
    """The engine rendered by `_engine_source(n)`, compiled once per level
    count up to ENGINE_UNROLL_MAX and once for the list form.

    Both layouts make the same draws, comparisons and float operations in
    the same order, and so give the same bits. The locals form (n levels)
    holds every b_k, s_k and per-level tally in a local and unrolls each
    level block's walk (`_unrolled_walk`); the list form holds them in
    lists and renders each walk as a loop (`_LIST_WALK`). The counts b_k,
    s_k, B, S and M are floats, which step by 1.0 and multiply the rates
    without an int-to-float conversion; they are exact below 2**53, so
    every comparison and product equals that on ints, and `_run` caps the
    budget so that no count reaches 2**53. The tallies stay ints.
    """
    namespace = {"array": array, "log1p": log1p, "length_hint": length_hint,
                 "_exhausted": _exhausted}
    exec(compile(_engine_source(n), f"<lobfluid.simulate engine {n}>",
                 "exec"), namespace)
    return namespace["engine"]


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

    The chain runs on one rendering of the engine: with the book in
    locals up to ENGINE_UNROLL_MAX levels and in lists above; both give
    the same bits. The counts are floats, exact below 2**53 (the loop is
    pure Python; small numpy arrays would dominate the per-event cost), and
    the aggregates B, S, M move with the +-1 increments, so the total rate
    is exact at every step. An event adds at most one trader, so the
    engine's budget is capped at 2**53 - 1 - P events for an initial
    population P: reaching the cap raises BudgetExceeded naming it as the
    budget, and a population of 2**53 or more raises ValueError. At any
    real population the cap is far beyond a run's reach. Samples go into
    `array("d")` buffers as doubles, through `fromlist`, which grows a
    buffer once per sample where `extend` grows it once per count; x and y
    are numpy views of the buffers, divided by L in place, which converts
    and divides exactly as `np.array(samples, dtype=np.float64) / L` would.
    """
    n = params.n_levels
    b = [int(v) for v in init.b]
    s = [int(v) for v in init.s]
    # float counts are exact below 2**53, and an event adds at most one
    # trader; a run that reaches the cap raises BudgetExceeded naming it
    population = sum(b) + sum(s)
    if population >= 2**53:
        raise ValueError(f"initial population {population} is not below "
                         f"2**53, where float counts stop being exact")
    budget = min(max_events, 2**53 - 1 - population)
    engine = _compiled_engine(n if n <= ENGINE_UNROLL_MAX else None)
    L = float(scale.l)
    lam_b = params.lambda_b
    lam_s = params.lambda_s
    rq = params.beta / scale.l
    rm = params.alpha / scale.l
    rates = (lam_b, lam_s, lam_b + lam_s, params.gamma / scale.l, rq, rm,
             rq + rm)
    n_events, xs, ys, b, s, (B, S, M), tallies = engine(
        rates, b, s, t_end, sample_ts, rng, budget, CHUNK)

    if (B, S, M) != (sum(b), sum(s), sum(map(min, b, s))):
        raise InvariantViolation(
            f"aggregate drift: B={B}, S={S}, M={M} for b={b}, s={s}")
    final = DiscreteState(np.array(b, dtype=np.int64),
                          np.array(s, dtype=np.int64))
    counters = EventCounters(*(
        np.array(v, dtype=np.int64) if isinstance(v, list) else v
        for v in tallies))
    db, ds = counters.conservation_defects(init, final)
    if db.any() or ds.any():
        raise InvariantViolation(
            f"conservation defect: buyers {db}, sellers {ds}")
    x = np.frombuffer(xs).reshape(len(sample_ts), n)
    y = np.frombuffer(ys).reshape(len(sample_ts), n)
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
    verified exactly before returning. max_events must be a nonnegative
    integer (an integral float passes as one).
    """
    max_events = _count(max_events, "max_events")
    taus = uniform_grid(tau_max, sample_dt, ("tau_max", "sample_dt"))
    rng = np.random.default_rng(seed)
    init = initial_discrete_state(*_pair(x0, y0, params.n_levels), scale)
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
    _check_positive(burn_in, "burn_in")
    _check_positive(sample_gap, "sample_gap")
    n_samples = _count(n_samples, "n_samples")
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
