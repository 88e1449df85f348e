"""Parameter validation, event enumeration, and state updates."""

import math

import numpy as np
import pytest

from lobfluid import (
    BadN,
    BadPriceLabels,
    DisabledEvent,
    DiscreteState,
    Event,
    EventKind,
    ModelParams,
    NegativeBeta,
    NonPositiveRate,
    ParamError,
    ScalingLevel,
    apply_event,
    enumerate_events,
    scale_state,
    validate_params,
)
from lobfluid.model import TRANSITIONS


def params(n=1, lam_b=1.0, lam_s=1.0, alpha=1.0, beta=1.0, gamma=1.0, **kw):
    return ModelParams(n, lam_b, lam_s, alpha, beta, gamma, **kw)


def test_validate_params_passthrough():
    raw = dict(n_levels=2, lambda_b=1.0, lambda_s=1.0, alpha=1.0, beta=1.0,
               gamma=1.0)
    p = validate_params(raw)
    for k, v in raw.items():
        assert getattr(p, k) == v
    assert validate_params(p) is p


def test_validate_params_beta_zero_allowed():
    p = validate_params(dict(n_levels=1, lambda_b=1, lambda_s=1, alpha=1,
                             beta=0, gamma=1))
    assert p.beta == 0


def test_validate_params_rejections():
    with pytest.raises(BadN):
        params(n=0)
    with pytest.raises(NonPositiveRate):
        params(lam_b=0.0)
    with pytest.raises(NonPositiveRate):
        params(gamma=-1.0)
    with pytest.raises(NegativeBeta):
        params(beta=-0.5)
    with pytest.raises(BadPriceLabels):
        params(n=2, price_labels=(1.0, 1.0))
    with pytest.raises(BadPriceLabels):
        params(n=3, price_labels=(1.0, 2.0))
    # NaN compares false with everything, so it passed the ordering test
    for labels in ((float("nan"), 1.0), (1.0, float("inf")),
                   (float("-inf"), 0.0), (float("nan"), float("nan"))):
        with pytest.raises(BadPriceLabels, match="must be finite"):
            params(n=2, price_labels=labels)
    with pytest.raises(ParamError):
        validate_params(dict(n_levels=1, lambda_b=1, lambda_s=1, alpha=1,
                             beta=1, gamma=1, typo=3))
    with pytest.raises(ParamError):
        validate_params(dict(n_levels=1))


# True ran as 1, inf raised OverflowError and nan a bare "cannot convert
# float NaN to integer"; a numpy float passed ScalingLevel and not the
# simulator's count check
@pytest.mark.parametrize("value", [True, False, 0, -3, 2.5, math.inf,
                                   math.nan, np.float32(2.5), "2", None])
def test_integer_arguments_share_one_check(value):
    with pytest.raises(BadN, match="n_levels must be a positive integer, got"):
        params(n=value)
    with pytest.raises(ValueError, match="scaling level must be a positive "
                                         "integer, got"):
        ScalingLevel(value)


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float32(3.0),
                                   np.float64(3.0)])
def test_integral_numbers_are_integer_arguments(value):
    assert params(n=value).n_levels == 3
    assert ScalingLevel(value).l == 3
    assert type(params(n=value).n_levels) is type(ScalingLevel(value).l) is int


def as_dict(events):
    return {(e.kind, e.level): e.rate for e in events}


def test_enumerate_n1_hand_enumeration():
    state = DiscreteState(np.array([2]), np.array([3]))
    events = enumerate_events(state, params(), ScalingLevel(1))
    table = as_dict(events)
    assert table == {
        (EventKind.BUYER_ARRIVAL, None): 1.0,
        (EventKind.SELLER_ARRIVAL, None): 1.0,
        (EventKind.TRADE, 1): 2.0,
        (EventKind.BUYER_QUIT, 1): 2.0,
        (EventKind.BUYER_EXIT_TOP, 1): 2.0,
        (EventKind.SELLER_QUIT, 1): 3.0,
        (EventKind.SELLER_EXIT_BOTTOM, 1): 3.0,
    }
    assert sum(table.values()) == pytest.approx(14.0, abs=0)


def test_enumerate_n2_scaled_hand_enumeration():
    state = DiscreteState(np.array([1, 0]), np.array([0, 2]))
    events = enumerate_events(state, params(n=2), ScalingLevel(10))
    table = as_dict(events)
    assert table == {
        (EventKind.BUYER_ARRIVAL, None): 1.0,
        (EventKind.SELLER_ARRIVAL, None): 1.0,
        (EventKind.BUYER_QUIT, 1): pytest.approx(0.1),
        (EventKind.BUYER_MOVE, 1): pytest.approx(0.1),
        (EventKind.SELLER_QUIT, 2): pytest.approx(0.2),
        (EventKind.SELLER_MOVE, 2): pytest.approx(0.2),
    }
    assert sum(table.values()) == pytest.approx(2.6)


def test_enumerate_rejects_a_state_of_another_dimension():
    state = DiscreteState(np.zeros(2, dtype=int), np.zeros(2, dtype=int))
    with pytest.raises(ValueError, match="state dimension does not match"):
        enumerate_events(state, params(n=3), ScalingLevel(1))


def test_enumerate_empty_state_only_arrivals():
    state = DiscreteState(np.zeros(3, dtype=int), np.zeros(3, dtype=int))
    events = enumerate_events(state, params(n=3, lam_b=2.5, lam_s=0.5),
                              ScalingLevel(7))
    assert [(e.kind, e.rate) for e in events] == [
        (EventKind.BUYER_ARRIVAL, 2.5),
        (EventKind.SELLER_ARRIVAL, 0.5),
    ]


def test_enumerate_canonical_order():
    # each block walks its levels from the side its traders enter: buyer
    # blocks and trades from level 1 up, seller blocks from level N down,
    # the seller alpha block ending with the bottom exit
    state = DiscreteState(np.array([1, 2, 3, 4]), np.array([5, 6, 7, 8]))
    events = enumerate_events(state, params(n=4), ScalingLevel(3))
    K = EventKind
    assert list(TRANSITIONS) == list(K)  # the table's rows in rank order
    up, down = [1, 2, 3, 4], [4, 3, 2, 1]
    assert [(e.kind, e.level) for e in events] == [
        (K.BUYER_ARRIVAL, None), (K.SELLER_ARRIVAL, None),
        *((K.TRADE, k) for k in up),
        *((K.BUYER_QUIT, k) for k in up),
        *((K.SELLER_QUIT, k) for k in down),
        *((K.BUYER_MOVE, k) for k in up[:-1]), (K.BUYER_EXIT_TOP, 4),
        *((K.SELLER_MOVE, k) for k in down[:-1]), (K.SELLER_EXIT_BOTTOM, 1),
    ]


def test_enumerate_sorted_and_duplicate_free():
    # canonical key: block rank, then level, seller blocks walked N..1
    seller = {EventKind.SELLER_QUIT, EventKind.SELLER_MOVE,
              EventKind.SELLER_EXIT_BOTTOM}

    def key(e):
        level = e.level or 0
        return int(e.kind), -level if e.kind in seller else level

    rng = np.random.default_rng(3)
    p = params(n=5, alpha=0.7, beta=0.3, gamma=2.0)
    for _ in range(50):
        state = DiscreteState(rng.integers(0, 6, 5), rng.integers(0, 6, 5))
        events = enumerate_events(state, p, ScalingLevel(4))
        keys = [key(e) for e in events]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))
        assert all(e.rate > 0 for e in events)


def test_rate_sum_matches_closed_form(fire_once):
    # the enumeration's rates sum to the closed form the simulator runs: the
    # engine fires the buyer arrival iff u * rate < lambda_b, so selection
    # uniforms just either side of lambda_b / sum pin its rate to rel 1e-12
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        p = params(n=n, lam_b=rng.uniform(0.1, 5), lam_s=rng.uniform(0.1, 5),
                   alpha=rng.uniform(0.1, 5), beta=rng.uniform(0, 5),
                   gamma=rng.uniform(0.1, 5))
        scale = ScalingLevel(int(rng.integers(1, 100)))
        state = DiscreteState(rng.integers(0, 20, n), rng.integers(0, 20, n))
        events = enumerate_events(state, p, scale)
        edge = p.lambda_b / sum(e.rate for e in events)
        _, below = fire_once(p, scale, state, edge * (1 - 1e-12))
        _, above = fire_once(p, scale, state, edge * (1 + 1e-12))
        assert below.buyer_arrivals == 1 and below.seller_arrivals == 0
        assert above.buyer_arrivals == 0 and above.seller_arrivals == 1


def test_apply_trade_decrements_both_sides():
    state = DiscreteState(np.array([2]), np.array([3]))
    nxt = apply_event(state, Event(EventKind.TRADE, 1, 1.0))
    assert nxt.b.tolist() == [1] and nxt.s.tolist() == [2]


def test_apply_buyer_move_shifts_unit():
    state = DiscreteState(np.array([1, 0]), np.array([0, 2]))
    nxt = apply_event(state, Event(EventKind.BUYER_MOVE, 1, 0.1))
    assert nxt.b.tolist() == [0, 1] and nxt.s.tolist() == [0, 2]


def test_apply_disabled_events():
    empty = DiscreteState(np.array([0]), np.array([0]))
    with pytest.raises(DisabledEvent):
        apply_event(empty, Event(EventKind.TRADE, 1, 0.0))
    with pytest.raises(DisabledEvent):
        apply_event(empty, Event(EventKind.BUYER_QUIT, 1, 0.0))
    state = DiscreteState(np.array([1, 1]), np.array([1, 1]))
    with pytest.raises(DisabledEvent):
        apply_event(state, Event(EventKind.BUYER_MOVE, 2, 1.0))
    with pytest.raises(DisabledEvent):
        apply_event(state, Event(EventKind.SELLER_MOVE, 1, 1.0))

    # a level outside the kind's levels, a level on an arrival, or none on
    # a level kind; as numpy indices, levels 0 and -1 would hit levels N
    # and N - 1, which can fire
    state = DiscreteState(np.array([1, 0, 2]), np.array([0, 3, 1]))
    K = EventKind
    for kind, level in [
            (K.BUYER_QUIT, 0),
            (K.SELLER_QUIT, -1),
            (K.BUYER_ARRIVAL, 3),
            (K.SELLER_ARRIVAL, 1),
            (K.TRADE, None),
            (K.TRADE, 4),
            (K.BUYER_EXIT_TOP, 1),
            (K.SELLER_EXIT_BOTTOM, 3),
            (K.SELLER_MOVE, None)]:
        with pytest.raises(DisabledEvent, match=f"{kind.name} cannot fire"):
            apply_event(state, Event(kind, level, 1.0))


def test_enumerated_events_apply_cleanly_with_unit_population_steps():
    rng = np.random.default_rng(5)
    p = params(n=4, beta=0.5)
    scale = ScalingLevel(3)
    for _ in range(100):
        state = DiscreteState(rng.integers(0, 5, 4), rng.integers(0, 5, 4))
        pop = state.population()
        for event in enumerate_events(state, p, scale):
            nxt = apply_event(state, event)
            assert (nxt.b >= 0).all() and (nxt.s >= 0).all()
            delta = nxt.population() - pop
            if event.kind in (EventKind.BUYER_ARRIVAL, EventKind.SELLER_ARRIVAL):
                assert delta == 1
            elif event.kind == EventKind.TRADE:
                assert delta == -2
            elif event.kind in (EventKind.BUYER_MOVE, EventKind.SELLER_MOVE):
                assert delta == 0
            else:
                assert delta == -1


def test_population_is_exact_past_int64():
    # each count is below 2**62, as initial_discrete_state allows, but an
    # int64 sum of them wraps
    state = DiscreteState([2**62, 2**62], [2**62, 0])
    assert state.population() == 3 * 2**62


@pytest.mark.parametrize("side", ["b", "s"])
@pytest.mark.parametrize("counts", [
    [0.5, 2.7], np.array([1e30, 0.0]), [1e30, 0], [np.nan, 0],
    [np.inf, 0], [2.0**63, 0], [2**70, 0],
], ids=["fractions", "array-1e30", "list-1e30", "nan", "inf", "2**63",
        "int-2**70"])
def test_occupancies_that_are_not_integer_counts_are_refused(counts, side):
    # a cast to int64 would truncate 0.5 and 2.7 to 0 and 2, and turn a
    # non-finite or too large value into a warning and a wrong count
    sides = {"b": [0, 0], "s": [0, 0]} | {side: counts}
    with pytest.raises(ValueError, match=f"^{side} must hold integer counts "
                                         r"below 2\*\*63 in size, got "):
        DiscreteState(**sides)


def test_integral_float_occupancies_are_counts():
    state = DiscreteState(np.zeros(2), [3.0, 2.0**62])
    assert state.b.dtype == state.s.dtype == np.int64
    assert state.b.tolist() == [0, 0] and state.s.tolist() == [3, 2**62]


def test_scale_state():
    state = DiscreteState(np.array([3, 1]), np.array([0, 2]))
    fs = scale_state(state, ScalingLevel(10))
    assert fs.x.tolist() == [0.3, 0.1]
    assert fs.y.tolist() == [0.0, 0.2]
    fs1 = scale_state(state, ScalingLevel(1))
    assert fs1.x.tolist() == [3.0, 1.0] and fs1.y.tolist() == [0.0, 2.0]
    zero = scale_state(DiscreteState(np.zeros(2, int), np.zeros(2, int)),
                       ScalingLevel(5))
    assert not zero.x.any() and not zero.y.any()


def test_package_has_no_assert_statements():
    # python -O strips asserts, so invariants in the package raise typed
    # errors instead
    import ast
    from pathlib import Path

    import lobfluid

    found = []
    for path in sorted(Path(lobfluid.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in lobfluid: {found}"
