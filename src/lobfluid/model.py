"""Core model: parameters, states, rate scaling, and the event table.

The market has N price levels. Buyers enter at level 1 at rate lambda_b and
drift upward; sellers enter at level N at rate lambda_s and drift downward.
At scaling level L each trader trades at rate gamma/L (paired with one
counterparty at the same level), quits at beta/L, and moves one level at
alpha/L; a buyer at the top level and a seller at the bottom level leave the
system instead of moving. The event table here states those transition
rules; `simulate.step` drives it directly, the simulator's engine
restates it (the tests replay one against the other), and the ODE
right-hand side and fixed-point solvers use its fluid limit.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from enum import IntEnum

import numpy as np

from .errors import (
    BadN,
    BadPriceLabels,
    DisabledEvent,
    NegativeBeta,
    NonPositiveRate,
    ParamError,
)

__all__ = [
    "ModelParams",
    "ScalingLevel",
    "DiscreteState",
    "FluidState",
    "EventKind",
    "Event",
    "validate_params",
    "enumerate_events",
    "apply_event",
    "scale_state",
]


@dataclass(frozen=True)
class ModelParams:
    """The five rate constants plus the level count N.

    beta = 0 is accepted: the fixed-point theory only needs beta >= 0,
    although the Markov model is normally run with a positive quit rate.
    price_labels are annotation only and never enter the dynamics.
    """

    n_levels: int
    lambda_b: float
    lambda_s: float
    alpha: float
    beta: float
    gamma: float
    price_labels: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if int(self.n_levels) != self.n_levels or self.n_levels < 1:
            raise BadN(f"n_levels must be a positive integer, got {self.n_levels}")
        object.__setattr__(self, "n_levels", int(self.n_levels))
        for name in ("lambda_b", "lambda_s", "alpha", "gamma"):
            v = float(getattr(self, name))
            if not (v > 0.0) or not np.isfinite(v):
                raise NonPositiveRate(f"{name} must be > 0, got {v}")
            object.__setattr__(self, name, v)
        if not (self.beta >= 0.0) or not np.isfinite(self.beta):
            raise NegativeBeta(f"beta must be >= 0, got {self.beta}")
        object.__setattr__(self, "beta", float(self.beta))
        if self.price_labels is not None:
            labels = tuple(float(c) for c in self.price_labels)
            if len(labels) != self.n_levels:
                raise BadPriceLabels(
                    f"expected {self.n_levels} price labels, got {len(labels)}"
                )
            if any(b <= a for a, b in zip(labels, labels[1:])):
                raise BadPriceLabels("price labels must be strictly increasing")
            object.__setattr__(self, "price_labels", labels)


PARAM_FIELDS = tuple(f.name for f in fields(ModelParams))


@dataclass(frozen=True)
class ScalingLevel:
    """Scaling parameter L >= 1; per-trader rates are gamma/L, beta/L, alpha/L."""

    l: int

    def __post_init__(self) -> None:
        if int(self.l) != self.l or self.l < 1:
            raise ValueError(f"scaling level must be a positive integer, got {self.l}")
        object.__setattr__(self, "l", int(self.l))


@dataclass(frozen=True)
class DiscreteState:
    """Integer occupancies (b, s): buyers and sellers per level."""

    b: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.b, dtype=np.int64)
        s = np.asarray(self.s, dtype=np.int64)
        if b.ndim != 1 or s.shape != b.shape:
            raise ValueError("b and s must be 1-d arrays of equal length")
        if (b < 0).any() or (s < 0).any():
            raise ValueError("occupancies must be nonnegative")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "s", s)

    @property
    def n_levels(self) -> int:
        return self.b.shape[0]

    def population(self) -> int:
        return int(self.b.sum() + self.s.sum())


@dataclass(frozen=True)
class FluidState:
    """Nonnegative real occupancies (x, y), the scaled state."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or y.shape != x.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if (x < 0).any() or (y < 0).any():
            raise ValueError("fluid state must be nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_levels(self) -> int:
        return self.x.shape[0]


class EventKind(IntEnum):
    """Transition kinds. The integer value is the canonical block rank.

    Within a block, `enumerate_events` walks trades and the buyer blocks
    over levels 1..N and the seller blocks over N..1, so each trader block
    starts where its traders enter the book. The buyer alpha block ends
    with the top exit at level N, the seller alpha block with the bottom
    exit at level 1.
    """

    BUYER_ARRIVAL = 0
    SELLER_ARRIVAL = 1
    TRADE = 2
    BUYER_QUIT = 3
    SELLER_QUIT = 4
    BUYER_MOVE = 5       # level k -> k+1, only for k < N
    BUYER_EXIT_TOP = 6   # alpha-departure at level N
    SELLER_MOVE = 7      # level k -> k-1, only for k > 1
    SELLER_EXIT_BOTTOM = 8  # alpha-departure at level 1


@dataclass(frozen=True)
class Event:
    """One enabled transition. level is 1-based; None for arrivals."""

    kind: EventKind
    level: int | None
    rate: float


def validate_params(raw) -> ModelParams:
    """Build a validated ModelParams from a mapping or another ModelParams.

    Unknown keys are rejected so config typos surface early.
    """
    if isinstance(raw, ModelParams):
        return raw
    extra = set(raw) - set(PARAM_FIELDS)
    if extra:
        raise ParamError(f"unknown parameter field(s): {', '.join(sorted(extra))}")
    missing = {f.name for f in fields(ModelParams)
               if f.default is MISSING} - set(raw)
    if missing:
        raise ParamError(f"missing parameter field(s): {', '.join(sorted(missing))}")
    return ModelParams(**dict(raw))


def enumerate_events(
    state: DiscreteState, params: ModelParams, scale: ScalingLevel
) -> list[Event]:
    """Exhaustive, duplicate-free list of positive-rate events.

    Built in the canonical order: EventKind rank, then level, ascending for
    trades and buyers and descending for sellers (trades 1..N, buyer quits
    1..N, seller quits N..1, buyer moves 1..N-1 and the top exit, seller
    moves N..2 and the bottom exit). Buyers enter at level 1 and sellers at
    level N, and the stationary profile decays away from each entry level,
    so a walk over this order meets most of a trader block's rate first.
    Zero-rate events are omitted. The sum of rates equals
    lambda_b + lambda_s + ((alpha+beta) * (sum b + sum s) + gamma * sum min(b,s)) / L.
    """
    n = params.n_levels
    if state.n_levels != n:
        raise ValueError("state dimension does not match params.n_levels")
    L = scale.l
    rt = params.gamma / L
    rq = params.beta / L
    rm = params.alpha / L
    b, s = state.b, state.s

    events = [
        Event(EventKind.BUYER_ARRIVAL, None, params.lambda_b),
        Event(EventKind.SELLER_ARRIVAL, None, params.lambda_s),
    ]
    for k in range(n):
        m = min(b[k], s[k])
        if m > 0:
            events.append(Event(EventKind.TRADE, k + 1, rt * m))
    if rq > 0.0:
        for k in range(n):
            if b[k] > 0:
                events.append(Event(EventKind.BUYER_QUIT, k + 1, rq * b[k]))
        for k in range(n - 1, -1, -1):
            if s[k] > 0:
                events.append(Event(EventKind.SELLER_QUIT, k + 1, rq * s[k]))
    for k in range(n - 1):
        if b[k] > 0:
            events.append(Event(EventKind.BUYER_MOVE, k + 1, rm * b[k]))
    if b[n - 1] > 0:
        events.append(Event(EventKind.BUYER_EXIT_TOP, n, rm * b[n - 1]))
    for k in range(n - 1, 0, -1):
        if s[k] > 0:
            events.append(Event(EventKind.SELLER_MOVE, k + 1, rm * s[k]))
    if s[0] > 0:
        events.append(Event(EventKind.SELLER_EXIT_BOTTOM, 1, rm * s[0]))
    return events


def apply_event(state: DiscreteState, event: Event) -> DiscreteState:
    """Apply the +-1 increments of one event; raises DisabledEvent if the
    event could not fire in this state."""
    b = state.b.copy()
    s = state.s.copy()
    n = b.shape[0]
    kind = event.kind
    k = (event.level - 1) if event.level is not None else None

    if kind == EventKind.BUYER_ARRIVAL:
        b[0] += 1
    elif kind == EventKind.SELLER_ARRIVAL:
        s[n - 1] += 1
    elif kind == EventKind.TRADE:
        if b[k] < 1 or s[k] < 1:
            raise DisabledEvent(f"trade at level {event.level} with empty side")
        b[k] -= 1
        s[k] -= 1
    elif kind == EventKind.BUYER_QUIT:
        if b[k] < 1:
            raise DisabledEvent(f"buyer quit at empty level {event.level}")
        b[k] -= 1
    elif kind == EventKind.SELLER_QUIT:
        if s[k] < 1:
            raise DisabledEvent(f"seller quit at empty level {event.level}")
        s[k] -= 1
    elif kind == EventKind.BUYER_MOVE:
        if k >= n - 1:
            raise DisabledEvent("buyer move is undefined at the top level")
        if b[k] < 1:
            raise DisabledEvent(f"buyer move from empty level {event.level}")
        b[k] -= 1
        b[k + 1] += 1
    elif kind == EventKind.BUYER_EXIT_TOP:
        if b[n - 1] < 1:
            raise DisabledEvent("buyer exit from empty top level")
        b[n - 1] -= 1
    elif kind == EventKind.SELLER_EXIT_BOTTOM:
        if s[0] < 1:
            raise DisabledEvent("seller exit from empty bottom level")
        s[0] -= 1
    elif kind == EventKind.SELLER_MOVE:
        if k < 1:
            raise DisabledEvent("seller move is undefined at the bottom level")
        if s[k] < 1:
            raise DisabledEvent(f"seller move from empty level {event.level}")
        s[k] -= 1
        s[k - 1] += 1
    else:  # pragma: no cover
        raise DisabledEvent(f"unknown event kind {kind!r}")
    return DiscreteState(b, s)


def scale_state(state: DiscreteState, scale: ScalingLevel) -> FluidState:
    """Componentwise division by L."""
    L = float(scale.l)
    return FluidState(state.b / L, state.s / L)
