"""Exact event-driven simulation of the order-book Markov chain.

`step()` drives the transition table `model.TRANSITIONS` through
`enumerate_events` and `apply_event` and is the reference, and
`_identities` derives the counting identities from the same table
(`EventCounters`' fields are the tallies, one per kind in rank order, and
`model.TALLIES` names them by kind; every rendering tallies each kind per
level, in one row of a tally matrix). `_Chain`, behind `simulate`,
`empirical_equilibrium` and the replicas of a convergence study, runs the
chain on a rendering of one chunk function: the template `_ENGINE`, whose
event code `_engine_source` renders from the same table and
`_python_engine` compiles on first use, or its rendering in C, the
`engine` function of the package's one CPython extension (`_cext`). Both
render their blocks through the table's readers in `model` (`_blocks`,
`_actions`). The ODE right-hand side, written apart, is the independent
check on the table (a test compares it with the table's drift). Every
rendering holds exact counts and keeps B = sum b, S = sum s and
M = sum min(b, s) exactly, so the closed-form total rate never drifts, and
every rendering makes the same comparisons and float operations in the
same order, so all give the same bits. The tests replay each rendering
event by event against `step()`, and compare them bit for bit at every
level count up to 17.

Division of work: the work of a chain is split into a set-up, made once
per (params, L, start, horizon, sample grid), and runs, one per replica.
The set-up is a `_Chain`, which makes the buffers that each chunk of a
run hands the rendering, in C or in Python, by their one signature (its
docstring states it): as for each of the extension's five functions, the
Python twin takes the C function's arguments, `_engine()` returns the
one that runs (`_cext.load`), and `_Chain` calls it without asking
which. Its runs reset those buffers in place and own the
one chunk loop, the budget, `BudgetExceeded`, the event count, the
samples left when the run ends, which take the final book, and the exact
checks of the aggregates and of the counting identities (`_identities`,
one cached matrix per N). A chunk records each sample's counts as
doubles straight into the chain's preallocated (m, N) float64 arrays,
which the run scales once in place and returns; the next run on the same
set-up overwrites them. `simulate` and `empirical_equilibrium` make one
run on a set-up of their own; `experiments.fluid_convergence` makes one
set-up per level, or per block of a level's replicas with workers
(`_replicas`, `simulate`'s own), and runs each replica on it.

Renderings: `_engine` picks one per process, and no option chooses it.
The C rendering runs when a C compiler `cc` and the interpreter's
`Python.h` build the extension (once per source, into a per-user cache;
`_cext` has the details) and a load-time check finds it giving the Python
engine's bits. Otherwise the Python rendering runs: the book in lists,
each level block testing its entry level inline and then looping over the
other levels (`_LIST_WALK`), compiled once per process (about 2 ms). It
is also the oracle the C engine is checked against. On a shared 2-core
Xeon (gcc 12, Python 3.11) the C engine took 43-58 ns per event at N = 2
and 48-73 ns at N = 50, the Python one 460-530 and 460-690 ns (CHANGES.md
has the runs). Both hold the counts as floats, which are exact below
2**53: `_Chain` refuses an initial population of 2**53 or more and caps
the budget so that no count reaches it. Nothing is compiled or built at import.

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
short at any N. `_Chain` takes the stream as (holding, selection) pairs,
CHUNK pairs (2 * CHUNK uniforms) per generator call into one buffer, so
no pair spans two calls; for PCG64, random(a) followed by random(b) gives
the values of random(a + b), so no output depends on CHUNK. The holding
column goes through `math.log1p`, or in C through the libm `log1p` that
it calls, never `np.log1p`, whose vectorised form differs from it in the
last bit on some machines. Replica streams are `SeedSequence` spawn keys
`(i, j)` (replica j at the i-th scaling level).

Per event the engine makes one clock test (against the next sample time
or the horizon, whichever comes first), no budget test (a chunk call gets
at most the budget's worth of pairs plus one) and one dispatch, in which
each level block tests its entry level first, then the others in walk
order; an empty level subtracts 0.0, so the same level fires as in a walk
over the occupied levels.

Per-trader rates fall like 1/L while the horizon in scaled time tau covers
t in [0, tau * L], so one unit of tau costs O(L) events.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from math import log1p
from operator import length_hint

import numpy as np

from . import ode
from .errors import BudgetExceeded, InvariantViolation
from .model import (
    TALLIES,
    TRANSITIONS,
    DiscreteState,
    Event,
    FluidState,
    ModelParams,
    ScalingLevel,
    _actions,
    _blocks,
    _count,
    _in_list,
    _indent,
    _pair,
    apply_event,
    enumerate_events,
)
from .ode import _check_positive, uniform_grid

__all__ = ["EventCounters", "Trajectory", "step", "simulate",
           "empirical_equilibrium", "initial_discrete_state"]

DEFAULT_MAX_EVENTS = 50_000_000
CHUNK = 1024  # (holding, selection) pairs per generator call


@dataclass
class EventCounters:
    """Cumulative event tallies over a simulation window. There is one
    field per EventKind, in rank order, named by `model.TALLIES`, which
    every rendering of the engine reads: an array tallies a kind per
    (0-based) level it fires at, and an int tallies a kind that fires at
    one level only. The engine tallies every kind per level, one row of an
    int64 matrix per field, and `_Chain.counters` sums an int field's row.

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
        `model.TRANSITIONS` (`_defects`); both arrays are identically zero
        on every correctly simulated window."""
        # an int field's kind fires at one level, the only one C reads
        tally = np.array([np.broadcast_to(getattr(self, name),
                                          initial.n_levels)
                          for name in TALLIES.values()], dtype=np.int64)
        db, ds = _defects(np.array([final.b - initial.b, final.s - initial.s]),
                          tally)
        return db, ds

    def conserves(self, initial: DiscreteState, final: DiscreteState) -> bool:
        db, ds = self.conservation_defects(initial, final)
        return not (db.any() or ds.any())


@functools.cache
def _identities(n: int) -> np.ndarray:
    """The counting identities at n levels, read off `model.TRANSITIONS`:
    the int64 matrix C of final - initial = C @ tally, with the book and
    the tally matrix (one row per kind, one column per 0-based level)
    flattened. An event moves traders at most one level from where it
    fires, so C is stored by its three diagonals, shape (3, 2,
    len(TALLIES), n): C[1 + offset, side, kind, k] is the increment that
    one event of kind at level k makes to side at level k + offset, 0
    where the kind does not fire. (Stored whole, C would take 144 MB at
    n = 1000.)"""
    c = np.zeros((3, 2, len(TALLIES), n), dtype=np.int64)
    for row, (_, levels, increments) in enumerate(TRANSITIONS.values()):
        for side, offset, sign in increments:
            c[1 + offset, side, row, levels(n)] += sign
    c.flags.writeable = False
    return c


def _defects(change: np.ndarray, tally: np.ndarray) -> np.ndarray:
    """change - C @ tally (`_identities`), the defects of the counting
    identities, rows b and s, for a window whose book changed by change
    (rows b and s) and whose tally matrix is tally: zero on every
    correctly simulated window."""
    down, here, up = (_identities(tally.shape[1]) * tally).sum(axis=2)
    here[:, :-1] += down[:, 1:]
    here[:, 1:] += up[:, :-1]
    return change - here


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


# The Python engine's source, with {fields} filled in by _engine_source: a
# rendering of the chunk function, whose one signature `_Chain` states. A
# chunk takes its pairs from the chain's uniform buffer u as two lists,
# loads the rates, the book, the clock and the tallies into locals (lists
# and floats; one list per row of the tally matrix, named by its
# `EventCounters` field) and stores the buffers it writes back at its end,
# each in one call. It reads a sample time from its buffer only when the
# clock passes one, so a chunk costs nothing per sample time.
#
# Per event it does only what the event needs. The clock moves in place and
# is tested once, against stop = min(next sample time, t_end), a float
# that changes only when samples are taken. The dispatch walks the canonical
# order; a target at or past the end fires the last positive-rate event:
# the seller arrival on an empty book, else the buyer alpha block when
# there are no sellers (then B > 0), else the seller alpha block. The
# target is never negative, so an empty block (weight 0.0) is never picked
# by its test.
_ENGINE = '''\
def engine(u, size, rates, t_end, sample_ts, book, clock, next_sample, tally,
           xs, ys):
    lam_b, lam_s, lam, rt, rq, rm, rqm = rates.tolist()
    b, s = book.tolist()
    t, B, S, M = clock.tolist()
    si, = next_sample.tolist()
    m = len(sample_ts)
    n = len(b)
    {tallies} = tally.tolist()
    # the levels after the entry level, in walk order
    top = n - 1
    up = range(1, n)
    down = range(top - 1, -1, -1)
    stop = min(float(sample_ts[si]), t_end) if si < m else t_end
    pairs = u[:2 * size]
    picks = iter(pairs[1::2].tolist())
    for hold, pick in zip(map(log1p, (-pairs[0::2]).tolist()), picks):
        w_trade = rt * M
        rate = lam + rqm * (B + S) + w_trade
        t -= hold / rate
        if t >= stop:
            if t >= t_end:
                break
            while si < m and sample_ts[si] <= t:
                xs[si] = b
                ys[si] = s
                si += 1
            stop = min(float(sample_ts[si]), t_end) if si < m else t_end
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
    book[:] = b, s
    clock[:] = t, B, S, M
    next_sample[0] = si
    tally[:] = {tallies}
    if t < t_end or not size:
        return size
    # the pair that ended the run was drawn but fired no event
    return size - length_hint(picks) - 1
'''

# A level block's walk, which leaves the level it picks in k: the entry
# level inline, then the levels after it (`rest`, in walk order), each test
# subtracting the weight tested before it. A target at or past the block's
# end scans all levels back from the far edge (`back`) for the last
# occupied one in walk order; the scan ends at the entry level, which it
# picks when no other level is occupied.
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


def _engine_source() -> str:
    """Source of the Python engine (see `_python_engine`), its blocks
    rendered from `_blocks`: each level block walks its levels from its
    entry level (`_LIST_WALK`), then fires its event at the level picked;
    an alpha block fires its move below the far edge and its exit there."""
    blocks = {}
    for name, kinds, unit, sides, up in _blocks():
        entry, rest, back = (("0", "up", "range(top, -1, -1)") if up
                             else ("top", "down", "range(top + 1)"))
        at = functools.partial(_in_list, "k" if unit else entry)
        fire, *leave = ["\n".join(
            statement if guard is None else _branch(f"if {guard}", statement)
            for guard, statement in _actions(kind, at)) for kind in kinds]
        if leave:
            fire = (_branch("if k < top" if up else "if k > 0", fire) + "\n"
                    + _branch("else", *leave))
        if unit:
            level = [side + "[k]" for side in sides]
            count = (level[0] if len(level) == 1
                     else "({0} if {0} < {1} else {1})".format(*level))
            fire = _LIST_WALK.format(entry=entry, rest=rest, back=back,
                                     weight=f"{unit} * {count}",
                                     occupied=" and ".join(level)
                                     ) + "\n" + fire
        blocks[name] = _indent(fire)
    return _ENGINE.format(tallies=", ".join(TALLIES.values()), **blocks)


@functools.cache
def _python_engine():
    """The Python engine, the chunk function `engine` of
    `_engine_source()` compiled once per process: the fallback where the
    C engine (`_cext`) cannot run, and the oracle that checks it. A chunk
    holds the book and the tallies in lists and walks each level block in
    a loop (`_LIST_WALK`). The counts b_k, s_k, B, S and M are floats,
    which step by 1.0 and multiply the rates without an int-to-float
    conversion; exact below 2**53, where `_Chain` caps them, they compare
    and multiply as ints would. The tallies stay ints."""
    namespace = {"log1p": log1p, "length_hint": length_hint}
    exec(compile(_engine_source(), "<lobfluid.simulate engine>", "exec"),
         namespace)
    return namespace["engine"]


@functools.cache
def _engine():
    """The rendering a `_Chain` runs, chosen once per process by
    `_cext.load("engine", _python_engine())`: the C one where the extension
    loads and the engine's load-time check finds it agreeing with the
    Python engine, else the Python engine. Both make the same draws,
    comparisons and float operations in the same order and so give the
    same bits, which is why no option chooses between them."""
    from . import _cext
    return _cext.load("engine", _python_engine())


class _Chain:
    """A chain of the model from init to t_end, sampled at sample_ts, set
    up once for any number of runs on engine, a rendering of the chunk
    function (`_engine()` by default, in C or in Python; both give the
    same bits).

    The set-up checks the population, caps the budget, computes the rates
    and makes every buffer the engine touches. Each chunk of a run calls
    engine(u, size, rates, t_end, sample_ts, book, clock, next_sample,
    tally, xs, ys), both renderings' one signature, which runs pairs
    0..size-1 of the uniforms in u (holding, selection) and returns the
    index of the pair that ended the run, or size if none did. The
    buffers are attributes of the chain, contiguous float64 or int64
    arrays: the uniforms, CHUNK pairs (CHUNK is read once, here); the
    rates and sample times; the book; the clock t with B, S and M; the
    index of the next sample; the tallies, an int64 matrix with one row
    per field of `EventCounters` and one column per level, where every
    kind is tallied at the 0-based level it fires at; and the samples'
    counts, one row of xs and ys per sample time, views of the one array
    samples.

    The counts are floats, exact below 2**53. An event adds at most one
    trader, so the budget is capped at 2**53 - 1 - P events for an initial
    population P (reaching it raises BudgetExceeded), and a population of
    2**53 or more raises ValueError.
    """

    def __init__(self, params: ModelParams, scale: ScalingLevel,
                 init: DiscreteState, t_end: float, sample_ts: list[float],
                 max_events: int, engine=None):
        population = init.population()
        if population >= 2**53:
            raise ValueError(f"initial population {population} is not below "
                             f"2**53, where float counts stop being exact")
        lam_b = params.lambda_b
        lam_s = params.lambda_s
        rq = params.beta / scale.l
        rm = params.alpha / scale.l
        self.rates = np.array([lam_b, lam_s, lam_b + lam_s,
                               params.gamma / scale.l, rq, rm, rq + rm])
        self.init = init
        self.start = np.array([init.b, init.s])
        self.start_clock = np.array([0.0, *self.start.sum(axis=1),
                                     np.minimum(*self.start).sum()])
        self.scale = float(scale.l)
        self.t_end = t_end
        self.max_events = min(max_events, 2**53 - 1 - population)
        self.chunk = CHUNK
        self.u = np.empty(2 * CHUNK)
        self.sample_ts = np.array(sample_ts, dtype=np.float64)
        self.book = np.empty(self.start.shape)
        self.clock = np.empty(4)
        self.next_sample = np.empty(1, dtype=np.int64)
        self.tally = np.empty((len(TALLIES), init.n_levels), dtype=np.int64)
        self.samples = np.empty((2, len(self.sample_ts), init.n_levels))
        self.xs, self.ys = self.samples
        self.engine = engine or _engine()

    def run(self, rng) -> tuple[np.ndarray, np.ndarray, int]:
        """Reset the buffers in place, run the chain from init to t_end on
        rng's uniforms, verify the aggregates and the counting identities
        exactly, and return (x, y, n_events); row i of x and y is the
        scaled state at sample_ts[i].

        Each chunk fills u with `rng.random(out=u)`. A run takes at most
        max_events + 1 pairs, so no event tests the budget: if the last of
        them also falls before t_end the budget ran out. The event count is
        the number of pairs consumed less the one that ended the run,
        counted apart from the tallies, so their sum stays a check on it.
        When the run ends, the samples from the next one on take the final
        book. x and y are the sample arrays divided by L in place, which
        converts and divides exactly as `np.array(samples,
        dtype=np.float64) / L` would; the next run overwrites them."""
        book, next_sample = self.book, self.next_sample
        buffers = (self.rates, self.t_end, self.sample_ts, book, self.clock,
                   next_sample, self.tally, self.xs, self.ys)
        book[:] = self.start
        self.clock[:] = self.start_clock
        next_sample[0] = 0
        self.tally.fill(0)
        n_events, left = 0, self.max_events + 1
        while left:
            size = min(self.chunk, left)
            rng.random(out=self.u)
            ended = self.engine(self.u, size, *buffers)
            n_events += ended
            if ended < size:
                break
            left -= size
        else:
            raise BudgetExceeded(f"event budget {self.max_events} exhausted "
                                 f"at t={self.clock[0]:.6g}")
        self.xs[next_sample[0]:], self.ys[next_sample[0]:] = book
        final = book.astype(np.int64)
        b, s = final
        B, S, M = map(int, self.clock[1:])
        if (B, S, M) != (b.sum(), s.sum(), np.minimum(b, s).sum()):
            raise InvariantViolation(f"aggregate drift: B={B}, S={S}, M={M} "
                                     f"for b={b.tolist()}, s={s.tolist()}")
        db, ds = _defects(final - self.start, self.tally)
        if db.any() or ds.any():
            raise InvariantViolation(
                f"conservation defect: buyers {db}, sellers {ds}")
        self.samples /= self.scale
        return self.xs, self.ys, n_events

    def final(self) -> DiscreteState:
        """The state where the last run ended."""
        return DiscreteState(*self.book.astype(np.int64))

    def counters(self) -> EventCounters:
        """The last run's tallies, decoded from the tally matrix, one row
        per field of `EventCounters`, an int field being its row's sum; the
        array fields are views of the matrix."""
        return EventCounters(*(
            int(row.sum()) if f.type == "int" else row
            for f, row in zip(fields(EventCounters), self.tally)))


def _replicas(params: ModelParams, scale: ScalingLevel, x0: np.ndarray,
              y0: np.ndarray, tau_max: float, sample_dt: float,
              max_events: int = DEFAULT_MAX_EVENTS
              ) -> tuple[np.ndarray, _Chain]:
    """`simulate`'s checks and set-up, made once for any number of runs:
    returns the sample grid taus and the `_Chain` whose runs are
    `simulate`'s for one seed each."""
    max_events = _count(max_events, "max_events")
    taus = uniform_grid(tau_max, sample_dt, ("tau_max", "sample_dt"))
    init = initial_discrete_state(*_pair(x0, y0, params.n_levels), scale)
    L = float(scale.l)
    return taus, _Chain(params, scale, init, tau_max * L,
                        [tau * L for tau in taus], max_events)


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
    taus, chain = _replicas(params, scale, x0, y0, tau_max, sample_dt,
                            max_events)
    x, y, n_events = chain.run(np.random.default_rng(seed))
    return Trajectory(
        taus=taus,
        x=x,
        y=y,
        initial_state=chain.init,
        final_state=chain.final(),
        counters=chain.counters(),
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
    n_samples may not pass `ode.GRID_MAX`, the cap on `simulate`'s sample
    grid, since the samples are preallocated.
    """
    _check_positive(burn_in, "burn_in")
    _check_positive(sample_gap, "sample_gap")
    n_samples = _count(n_samples, "n_samples")
    if n_samples > ode.GRID_MAX:
        raise ValueError(f"n_samples must be at most {ode.GRID_MAX}, "
                         f"got {n_samples}")
    if n_samples == 0:
        return []
    n = params.n_levels
    init = DiscreteState(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    L = float(scale.l)
    sample_ts = [(burn_in + (i + 1) * sample_gap) * L for i in range(n_samples)]
    x, y, _ = _Chain(params, scale, init, sample_ts[-1], sample_ts,
                     DEFAULT_MAX_EVENTS).run(np.random.default_rng(seed))
    return [FluidState(xi, yi) for xi, yi in zip(x, y)]
