"""Event-driven simulation: stepping law, conservation, determinism."""

import importlib
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from conftest import ScriptedUniforms

from lobfluid import (
    BudgetExceeded,
    DiscreteState,
    EventCounters,
    EventKind,
    InvariantViolation,
    ModelParams,
    ScalingLevel,
    apply_event,
    empirical_equilibrium,
    enumerate_events,
    initial_discrete_state,
    simulate,
    step,
    uniform_grid,
)
from lobfluid.simulate import DEFAULT_MAX_EVENTS, _run


def params(n=1, lam_b=1.0, lam_s=1.0, alpha=1.0, beta=1.0, gamma=1.0):
    return ModelParams(n, lam_b, lam_s, alpha, beta, gamma)


def test_step_empty_state_arrival_split():
    p = params(lam_b=3.0, lam_s=1.0)
    empty = DiscreteState(np.array([0]), np.array([0]))
    rng = np.random.default_rng(11)
    n = 100_000
    hits = 0
    for _ in range(n):
        event, holding, nxt = step(empty, p, ScalingLevel(1), rng)
        assert event.kind in (EventKind.BUYER_ARRIVAL, EventKind.SELLER_ARRIVAL)
        hits += event.kind == EventKind.BUYER_ARRIVAL
    p_buy = 3.0 / 4.0
    sigma = np.sqrt(p_buy * (1 - p_buy) / n)
    assert abs(hits / n - p_buy) < 3 * sigma


def test_step_mean_holding_time():
    p = params()
    state = DiscreteState(np.array([2]), np.array([3]))  # total rate 14
    rng = np.random.default_rng(12)
    n = 100_000
    total = 0.0
    for _ in range(n):
        _, holding, _ = step(state, p, ScalingLevel(1), rng)
        total += holding
    mean = total / n
    sigma = (1 / 14) / np.sqrt(n)  # exponential: sd equals the mean
    assert abs(mean - 1 / 14) < 3 * sigma


def test_step_deterministic_given_seed():
    p = params(n=2)
    state = DiscreteState(np.array([3, 1]), np.array([0, 2]))
    draws = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        draws.append([step(state, p, ScalingLevel(5), rng) for _ in range(20)])
    for (e1, h1, s1), (e2, h2, s2) in zip(*draws):
        assert e1 == e2
        assert h1 == h2
        assert (s1.b == s2.b).all() and (s1.s == s2.s).all()


def test_simulate_conservation_fuzz():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = params(n=n, lam_b=rng.uniform(0.2, 3), lam_s=rng.uniform(0.2, 3),
                   alpha=rng.uniform(0.2, 3), beta=rng.uniform(0, 3),
                   gamma=rng.uniform(0.2, 3))
        L = int(rng.integers(1, 20))
        x0 = rng.uniform(0, 2, n)
        y0 = rng.uniform(0, 2, n)
        traj = simulate(p, ScalingLevel(L), x0, y0, tau_max=rng.uniform(0, 3),
                        sample_dt=0.5, seed=int(rng.integers(1 << 31)))
        c = traj.counters
        assert c.conserves(traj.initial_state, traj.final_state)
        db, ds = c.conservation_defects(traj.initial_state, traj.final_state)
        assert not db.any() and not ds.any()
        # no spontaneous creation: growth is bounded by arrivals
        assert traj.final_state.population() <= (
            traj.initial_state.population()
            + c.buyer_arrivals + c.seller_arrivals
        )


def test_simulate_zero_horizon():
    p = params(n=2)
    traj = simulate(p, ScalingLevel(10), [0.5, 0.0], [0.0, 1.0], 0.0, 0.1, 7)
    assert traj.taus.tolist() == [0.0]
    assert traj.x.shape == (1, 2)
    assert traj.x[0].tolist() == [0.5, 0.0]
    assert traj.y[0].tolist() == [0.0, 1.0]
    assert traj.n_events == 0
    c = traj.counters
    assert c.buyer_arrivals == 0 and not c.trades.any()


def test_sample_times_are_the_uniform_grid():
    # the sample times follow ode.uniform_grid byte for byte, so the last
    # one is clamped to the horizon (3 * 0.1 rounds up past 0.3)
    p = params(n=2)
    for tau_max, dt in ((0.3, 0.1), (1.0, 0.3), (0.7, 0.1), (2.0, 0.05)):
        traj = simulate(p, ScalingLevel(10), np.zeros(2), np.zeros(2),
                        tau_max, dt, seed=5)
        assert traj.taus.tobytes() == uniform_grid(tau_max, dt).tobytes()
        assert traj.taus[-1] <= tau_max
        assert traj.x.shape == (len(traj.taus), 2)


def test_simulate_bit_identical_for_fixed_seed():
    p = params(n=3, beta=0.2, gamma=2.0)
    runs = [
        simulate(p, ScalingLevel(50), np.zeros(3), np.zeros(3), 2.0, 0.05,
                 seed=4242)
        for _ in range(2)
    ]
    a, b = runs
    assert (a.x == b.x).all() and (a.y == b.y).all()
    assert (a.final_state.b == b.final_state.b).all()
    assert (a.final_state.s == b.final_state.s).all()
    assert a.n_events == b.n_events
    assert (a.counters.trades == b.counters.trades).all()
    assert a.counters.buyer_arrivals == b.counters.buyer_arrivals


def test_outputs_do_not_depend_on_chunk_size(monkeypatch):
    # the engine takes its uniforms CHUNK pairs at a time, and random(a)
    # followed by random(b) gives the values of random(a + b); both runs
    # draw more than one real chunk
    engine = importlib.import_module("lobfluid.simulate")
    p = params(n=3, beta=0.2, gamma=2.0)
    runs, equilibria = [], []
    for chunk in (1, 3, engine.CHUNK):
        monkeypatch.setattr(engine, "CHUNK", chunk)
        runs.append(simulate(p, ScalingLevel(500), np.zeros(3), np.zeros(3),
                             2.0, 0.05, seed=4242))
        equilibria.append(empirical_equilibrium(
            p, ScalingLevel(200), burn_in=1.0, n_samples=20, sample_gap=0.25,
            seed=4243))
    ref = runs[-1]
    assert ref.n_events > engine.CHUNK
    for run in runs[:-1]:
        assert run.n_events == ref.n_events
        assert (run.x == ref.x).all() and (run.y == ref.y).all()
        assert (run.final_state.b == ref.final_state.b).all()
        assert (run.final_state.s == ref.final_state.s).all()
        for f in fields(EventCounters):
            assert np.array_equal(getattr(run.counters, f.name),
                                  getattr(ref.counters, f.name)), f.name
    for samples in equilibria[:-1]:
        assert len(samples) == len(equilibria[-1]) == 20
        for got, want in zip(samples, equilibria[-1]):
            assert (got.x == want.x).all() and (got.y == want.y).all()


def test_simulate_matches_fluid_solution_at_tau_one():
    # N=1, all constants 1: scaled endpoint near the ODE value in >= 95 of
    # 100 seeded replicas at L=1000.
    from lobfluid import integrate

    p = params()
    sol = integrate(np.zeros(1), np.zeros(1), p, 1.0,
                    grid=np.array([0.0, 1.0]))
    target = np.array([sol.x[-1, 0], sol.y[-1, 0]])
    root = np.random.SeedSequence(2024)
    hits = 0
    for child in root.spawn(100):
        traj = simulate(p, ScalingLevel(1000), np.zeros(1), np.zeros(1),
                        1.0, 1.0, child)
        endpoint = np.array([traj.x[-1, 0], traj.y[-1, 0]])
        hits += np.linalg.norm(endpoint - target) < 0.2
    assert hits >= 95


def test_simulate_budget_exceeded():
    p = params()
    with pytest.raises(BudgetExceeded):
        simulate(p, ScalingLevel(100), np.zeros(1), np.zeros(1), 5.0, 0.5,
                 seed=1, max_events=10)


def test_budget_boundary_is_the_event_count(monkeypatch):
    # a budget of exactly n_events lets the run finish unchanged; one less
    # stops it. The run has 369 events, a multiple of 3: with CHUNK = 3 a
    # budget of n_events or n_events - 3 ends on a chunk edge, so the pair
    # after the budget, which decides, comes from a new generator call
    engine = importlib.import_module("lobfluid.simulate")
    p = params(n=3, beta=0.2, gamma=2.0)
    run = lambda budget: simulate(p, ScalingLevel(50), np.zeros(3),
                                  np.zeros(3), 2.0, 0.05, seed=4242,
                                  max_events=budget)
    for chunk in (engine.CHUNK, 3):
        monkeypatch.setattr(engine, "CHUNK", chunk)
        ref = run(DEFAULT_MAX_EVENTS)
        exact = run(ref.n_events)
        assert exact.n_events == ref.n_events == 369
        assert (exact.x == ref.x).all() and (exact.y == ref.y).all()
        for f in fields(EventCounters):
            assert np.array_equal(getattr(exact.counters, f.name),
                                  getattr(ref.counters, f.name)), f.name
        for budget in (ref.n_events - 1, ref.n_events - 3):
            with pytest.raises(BudgetExceeded, match=f"budget {budget} "):
                run(budget)
    # a budget beyond sys.maxsize is one no run can use up
    assert run(10**30).n_events == 369


@pytest.mark.parametrize("lam_b,lam_s", [(0.5, 0.5), (1.5, 2.5)])
@pytest.mark.parametrize("u", [0.0, 0.5, 0.39240466433477816,
                               0.8062153310270436, 0.31645208740449016,
                               0.7998795260549534])
def test_holding_time_is_bit_exact(lam_b, lam_s, u):
    # from the empty book the total rate is exactly lambda_b + lambda_s (a
    # power of two here, so the division is exact), and the first event
    # falls at exactly -math.log1p(-u) / rate: a horizon there fires none,
    # the next double up fires one. The nonzero u values are ones where
    # numpy's vectorised np.log1p and math.log1p differ in the last bit on
    # an AVX-512 x86-64 machine.
    p = params(n=3, lam_b=lam_b, lam_s=lam_s)
    empty = DiscreteState(np.zeros(3), np.zeros(3))
    t_first = -math.log1p(-u) / (lam_b + lam_s)
    t_after = math.nextafter(t_first, math.inf)
    for t_end, want in ((t_first, 0), (t_after, 1)):
        _, _, n_events, _, _ = _run(p, ScalingLevel(7), empty, t_end, [],
                                    ScriptedUniforms([u, 0.25]), 10)
        assert n_events == want, (t_end, want)


def test_samples_are_scaled_lattice_points():
    p = params(n=2)
    L = 25
    traj = simulate(p, ScalingLevel(L), np.zeros(2), np.zeros(2), 1.5, 0.25,
                    seed=8)
    assert np.allclose(traj.x * L, np.round(traj.x * L))
    assert np.allclose(traj.y * L, np.round(traj.y * L))
    assert (traj.x[-1] == traj.final_state.b / L).all()
    assert (traj.y[-1] == traj.final_state.s / L).all()


# A run's samples may cost at most MEMORY_RATIO times the bytes of the
# arrays it returns, plus MEMORY_SLACK for the draw chunks, the sample-time
# list and the counters. A Python object per sample (a list of ints) peaks
# at 2.6 to 4.2 times those bytes on the shapes below.
MEMORY_RATIO = 1.5
MEMORY_SLACK = 64 * 1024


def _traced_peak(fn):
    """fn's result and the peak of the bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_samples_cost_little_beyond_the_returned_arrays():
    p = params(n=40)
    z = np.zeros(40)
    run = lambda tau: simulate(p, ScalingLevel(100), z, z, tau, 0.001, seed=3)
    run(0.01)  # first-call allocations are not the run's
    traj, peak = _traced_peak(lambda: run(2.0))
    assert traj.x.shape == (2001, 40)
    assert peak <= MEMORY_RATIO * (traj.x.nbytes + traj.y.nbytes) + MEMORY_SLACK


def test_empirical_equilibrium_samples_cost_little_beyond_their_bytes():
    p = params(n=100)
    run = lambda n: empirical_equilibrium(p, ScalingLevel(100), 1.0, n,
                                          0.001, seed=3)
    run(1)
    samples, peak = _traced_peak(lambda: run(1000))
    assert len(samples) == 1000
    data = sum(s.x.nbytes + s.y.nbytes for s in samples)
    assert peak <= MEMORY_RATIO * data + MEMORY_SLACK


def test_empirical_equilibrium_mean_and_seed_stability():
    p = params()
    kw = dict(burn_in=10.0, n_samples=150, sample_gap=0.3)
    samples_a = empirical_equilibrium(p, ScalingLevel(1000), seed=21, **kw)
    mean_a = np.mean([[s.x[0], s.y[0]] for s in samples_a], axis=0)
    assert np.abs(mean_a - 1 / 3).max() < 0.05
    samples_b = empirical_equilibrium(p, ScalingLevel(1000), seed=22, **kw)
    mean_b = np.mean([[s.x[0], s.y[0]] for s in samples_b], axis=0)
    assert np.abs(mean_a - mean_b).max() < 0.05


def test_empirical_equilibrium_no_samples():
    assert empirical_equilibrium(params(), ScalingLevel(10), 1.0, 0, 1.0, 3) == []


@pytest.mark.parametrize("burn_in,gap,name", [
    (1.0, math.nan, "sample_gap"),
    (1.0, math.inf, "sample_gap"),
    (math.inf, 0.5, "burn_in"),
    (math.nan, 0.5, "burn_in"),
])
def test_empirical_equilibrium_rejects_nonfinite_times(burn_in, gap, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        empirical_equilibrium(params(), ScalingLevel(10), burn_in, 2, gap, 3)


@pytest.mark.parametrize("x0,y0,L,name", [
    ([1e18, 0.0], [0.0, 0.0], 10, "x0"),
    ([0.0, 0.0], [0.0, 1e300], 10, "y0"),
    ([2.0**52, 0.0], [0.0, 0.0], 2**10, "x0"),  # L*x0 == 2**62 exactly
    ([0.0, 0.0], [-1e300, 0.0], 1, "y0"),
])
def test_initial_state_rejects_counts_beyond_int64(x0, y0, L, name):
    # rejected before the cast to int64, which would warn and wrap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name} times the scale L = {L}"):
            initial_discrete_state(np.array(x0), np.array(y0), ScalingLevel(L))
        with pytest.raises(ValueError, match=f"{name} times the scale"):
            simulate(params(n=2), ScalingLevel(L), x0, y0, 1.0, 0.5, seed=1)


def test_initial_state_accepts_counts_just_below_the_bound():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = initial_discrete_state(np.array([2.0**52 - 1, 0.0]),
                                       np.array([0.0, 1.0]),
                                       ScalingLevel(2**10))
    assert state.b.tolist() == [2**62 - 2**10, 0]
    assert state.s.tolist() == [0, 2**10]


# EventCounters field that tallies each event kind (per-level arrays are
# indexed by the 0-based source level)
TALLY_FIELD = {
    EventKind.BUYER_ARRIVAL: "buyer_arrivals",
    EventKind.SELLER_ARRIVAL: "seller_arrivals",
    EventKind.TRADE: "trades",
    EventKind.BUYER_QUIT: "buyer_quits",
    EventKind.SELLER_QUIT: "seller_quits",
    EventKind.BUYER_MOVE: "buyer_moves",
    EventKind.BUYER_EXIT_TOP: "buyer_exit_top",
    EventKind.SELLER_EXIT_BOTTOM: "seller_exit_bottom",
    EventKind.SELLER_MOVE: "seller_moves",
}

# (params, L, x0, y0, tau_max, seed)
REPLAY_CASES = {
    "base": (params(n=2, lam_s=1.5, alpha=0.8, beta=0.4, gamma=2.0), 7,
             [0.9, 0.1], [0.2, 1.3], 3.0, 31415),
    "quits": (params(n=2, beta=0.7, gamma=1.3), 5,
              [0.4, 0.0], [0.0, 0.6], 1.0, 5),
    "zero-beta": (params(n=2, beta=0.0), 20, [0.0, 0.0], [0.0, 0.0], 2.0, 17),
    "single-level": (params(n=1), 10, [0.6], [0.3], 3.0, 23),
    "trade-heavy": (params(n=4, alpha=0.3, gamma=30.0), 10,
                    [0.8, 0.5, 0.2, 0.0], [0.0, 0.3, 0.4, 0.9], 2.0, 29),
    # buyers at levels 1-2, sellers at N-1..N, both at one interior level:
    # the walk skips long runs of empty levels in every block
    "sparse": (params(n=12, alpha=0.6, beta=0.3, gamma=20.0), 10,
               [0.8, 0.5, 0, 0, 0, 0.4, 0, 0, 0, 0, 0, 0],
               [0, 0, 0, 0, 0, 0.3, 0, 0, 0, 0, 0.6, 0.9], 1.5, 37),
    # buyers spread from level 1 and sellers from level N over about 30
    # levels each: long walks upward in the buyer blocks, downward in the
    # seller blocks
    "spread": (params(n=34, alpha=1.5, beta=0.2, gamma=0.5), 20,
               [0.6 * 0.9 ** k for k in range(34)],
               [0.6 * 0.9 ** (33 - k) for k in range(34)], 0.5, 41),
    # overlapping books: both sides on every level, so trades walk long runs
    "overlap": (params(n=20, alpha=0.5, beta=0.3, gamma=30.0), 10,
                [0.5] * 20, [0.4] * 20, 0.3, 43),
}


@pytest.mark.parametrize("case", list(REPLAY_CASES))
def test_simulate_equals_stepwise_replay(case):
    # the engine and step() over the enumerated event table
    # make identical draws, fire identical events and tally them alike
    p, L, x0, y0, tau_max, seed = REPLAY_CASES[case]
    scale = ScalingLevel(L)
    traj = simulate(p, scale, x0, y0, tau_max, 0.5, seed)

    rng = np.random.default_rng(seed)
    state = traj.initial_state
    tally = EventCounters.zeros(p.n_levels)
    kinds = Counter()
    t, t_end = 0.0, tau_max * L
    while True:
        event, holding, nxt = step(state, p, scale, rng)
        t += holding
        if t >= t_end:
            break
        state = nxt
        kinds[event.kind] += 1
        name = TALLY_FIELD[event.kind]
        field = getattr(tally, name)
        if isinstance(field, np.ndarray):
            field[event.level - 1] += 1
        else:
            setattr(tally, name, field + 1)

    assert sum(kinds.values()) == traj.n_events > 0
    assert (state.b == traj.final_state.b).all()
    assert (state.s == traj.final_state.s).all()
    for f in fields(EventCounters):
        assert np.array_equal(getattr(traj.counters, f.name),
                              getattr(tally, f.name)), f.name
    for kind, name in TALLY_FIELD.items():
        assert np.sum(getattr(traj.counters, name)) == kinds[kind], kind.name


def test_sparse_book_fires_each_event_as_step_does(fire_once):
    # from the sparse replay case's initial book, a selection uniform at the
    # middle of each event's share of the rate, and one past the end of the
    # table, fire the same event in the engine as in step()
    p, L, x0, y0, _, _ = REPLAY_CASES["sparse"]
    scale = ScalingLevel(L)
    state = initial_discrete_state(np.array(x0), np.array(y0), scale)
    events = enumerate_events(state, p, scale)
    total = sum(e.rate for e in events)
    edges = np.cumsum([0.0] + [e.rate for e in events])
    picks = [(lo + hi) / 2 / total for lo, hi in zip(edges, edges[1:])]
    assert len(picks) == 15  # 2 arrivals, 1 trade, 3 levels per other block
    for u in picks + [1 + 1e-12]:
        got, counters = fire_once(p, scale, state, u)
        _, _, want = step(state, p, scale, ScriptedUniforms([0.0, u]))
        assert (got.b == want.b).all() and (got.s == want.s).all(), u
        assert counters.conserves(state, got)


@pytest.mark.parametrize("b,s", [([1, 1], [0, 0]), ([0, 0], [1, 1]),
                                 ([1, 1], [1, 1])])
def test_target_on_entry_level_edge_fires_next_level(fire_once, b, s):
    # rates chosen so the float walk is exact: the total rate is 4 with one
    # side's book, 8 with both, and the selection uniform leaves a target of
    # exactly 1 at the entry level of the alpha block (one side) or of the
    # trade block (both), whose weight is also 1; the target is not below
    # it, so the next level in walk order fires, as in step()
    both = any(b) and any(s)
    u = 0.375 if both else 0.75
    kind = (EventKind.TRADE if both else EventKind.BUYER_EXIT_TOP if any(b)
            else EventKind.SELLER_EXIT_BOTTOM)
    p = params(n=2, beta=0.0)
    scale = ScalingLevel(1)
    state = DiscreteState(np.array(b), np.array(s))
    got, counters = fire_once(p, scale, state, u)
    event, _, want = step(state, p, scale, ScriptedUniforms([0.0, u]))
    assert event.kind == kind
    assert (got.b == want.b).all() and (got.s == want.s).all()
    tally = getattr(counters, TALLY_FIELD[kind])
    if isinstance(tally, np.ndarray):
        assert event.level == 2 and tally.tolist() == [0, 1]
    else:
        assert tally == 1


def test_fire_past_table_end_fires_last_event(fire_once):
    # a target at or past the end of the rate table (float summation) fires
    # the last positive-rate event, as step() does; the engine's own check
    # raises if its aggregates B, S, M drift from the occupancies. The books
    # are sparse (a level holds traders with probability 1/4), so the walk
    # past the end of a block crosses long runs of empty levels, upward in
    # the buyer alpha block and downward in the seller one
    rng = np.random.default_rng(41)
    up = down = 0  # most empty levels crossed before the level that fired
    for trial in range(400):
        n = int(rng.integers(1, 13))
        p = params(n=n, lam_b=rng.uniform(0.2, 3), lam_s=rng.uniform(0.2, 3),
                   alpha=rng.uniform(0.2, 3), beta=float(rng.choice([0.0, 0.7])),
                   gamma=rng.uniform(0.2, 3))
        b = rng.integers(1, 3, n) * (rng.random(n) < 0.25)
        s = rng.integers(1, 3, n) * (rng.random(n) < 0.25)
        if trial % 4 in (1, 3):  # no buyers
            b[:] = 0
        if trial % 4 in (2, 3):  # no sellers; both: the empty book
            s[:] = 0
        state = DiscreteState(b, s)
        scale = ScalingLevel(int(rng.integers(1, 10)))
        got, counters = fire_once(p, scale, state, 1 + 1e-12)
        last = enumerate_events(state, p, scale)[-1]
        expected = apply_event(state, last)
        assert (got.b == expected.b).all() and (got.s == expected.s).all()
        assert counters.conserves(state, got)
        if last.kind in (EventKind.BUYER_MOVE, EventKind.BUYER_EXIT_TOP):
            up = max(up, int((b[:last.level - 1] == 0).sum()))
        elif last.kind in (EventKind.SELLER_MOVE, EventKind.SELLER_EXIT_BOTTOM):
            down = max(down, int((s[last.level:] == 0).sum()))
    assert up >= 6 and down >= 6, (up, down)


def test_conservation_defect_raises_typed_error(monkeypatch):
    def defect(self, initial, final):
        return np.array([1, 0]), np.zeros(2, dtype=np.int64)

    monkeypatch.setattr(EventCounters, "conservation_defects", defect)
    with pytest.raises(InvariantViolation, match="conservation defect"):
        simulate(params(n=2), ScalingLevel(5), np.zeros(2), np.zeros(2),
                 1.0, 0.5, seed=3)


def test_simulate_with_zero_beta():
    p = params(n=2, beta=0.0)
    traj = simulate(p, ScalingLevel(20), np.zeros(2), np.zeros(2), 2.0, 0.5,
                    seed=17)
    c = traj.counters
    assert not c.buyer_quits.any() and not c.seller_quits.any()
    assert c.conserves(traj.initial_state, traj.final_state)


def test_state_and_scale_validation():
    from lobfluid import FluidState

    with pytest.raises(ValueError):
        ScalingLevel(0)
    with pytest.raises(ValueError):
        FluidState(np.array([-0.1]), np.array([0.0]))
    with pytest.raises(ValueError):
        DiscreteState(np.array([1, 2]), np.array([1]))
    with pytest.raises(ValueError):
        simulate(params(), ScalingLevel(10), [0.1], [0.1], 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        simulate(params(), ScalingLevel(10), [0.1], [0.1], -1.0, 0.1, 1)
    with pytest.raises(ValueError):
        simulate(params(n=2), ScalingLevel(10), [0.1], [0.1], 1.0, 0.1, 1)


def test_across_replica_spread_tightens_with_l():
    # dispersion of the scaled state at tau=1 shrinks from L=100 to L=10000
    p = params()
    spreads = {}
    for idx, L in enumerate((100, 10_000)):
        endpoints = []
        for child in np.random.SeedSequence(77, spawn_key=(idx,)).spawn(50):
            traj = simulate(p, ScalingLevel(L), np.zeros(1), np.zeros(1),
                            1.0, 1.0, child)
            endpoints.append([traj.x[-1, 0], traj.y[-1, 0]])
        spreads[L] = np.median(np.std(np.array(endpoints), axis=0))
    assert spreads[10_000] < spreads[100]
