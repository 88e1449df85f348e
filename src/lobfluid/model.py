"""Core model: parameters, states, rate scaling, and the transition table.

The market has N price levels. Buyers enter at level 1 at rate lambda_b and
drift upward; sellers enter at level N at rate lambda_s and drift downward.
At scaling level L each trader trades at rate gamma/L (paired with one
counterparty at the same level), quits at beta/L, and moves one level at
alpha/L; a buyer at the top level and a seller at the bottom level leave the
system instead of moving. `TRANSITIONS` states those rules once, as data:
one row per event kind with its rate constant, its levels and its +-1
increments, off which `_taken` reads the count that the rate multiplies.
`enumerate_events` and `apply_event` read it, `simulate.step` drives them,
`simulate._identities` derives the counting identities from it (a run's
check and `EventCounters.conservation_defects` both read them), and every
rendering of the simulator's engine, in Python (`simulate`) and in C
(`_cext`), renders its event code from it through the readers beside it
(`_blocks`, `_actions`; `TALLIES` names each kind's tally), so neither
rendering imports the other (the tests replay the engine against `step`).
The ODE right-hand side, written apart as the rules' drift rescaled, is
the independent check on the table: a test compares the two.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from enum import IntEnum
from itertools import groupby
from operator import index

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


def _count(value, name: str, minimum: int | None = 0,
           error: type[Exception] = ValueError) -> int:
    """value as an int of at least minimum (0 or 1; None takes any sign):
    an int, a numpy integer or an integral float (a numpy float included).
    A bool, a non-integral or non-finite value or a smaller one raises
    error naming the argument."""
    if not isinstance(value, bool):
        try:
            count = index(value)
        except TypeError:
            integral = (isinstance(value, (float, np.floating))
                        and float(value).is_integer())
            count = int(value) if integral else None
        if count is not None and (minimum is None or count >= minimum):
            return count
    what = {0: "a nonnegative", 1: "a positive"}.get(minimum, "an")
    raise error(f"{name} must be {what} integer, got {value!r}")


def _pair(x, y, n_levels: int,
          names: tuple[str, str] = ("x0", "y0")) -> tuple[np.ndarray, ...]:
    """x and y as float arrays of n_levels finite, nonnegative values each:
    the one check of an initial pair and of a fluid state. Anything else
    raises ValueError naming the side."""
    pair = []
    for name, v in zip(names, (x, y)):
        v = np.asarray(v, dtype=np.float64)
        if not (v.shape == (n_levels,) and np.isfinite(v).all()
                and (v >= 0).all()):
            raise ValueError(f"{name} must be {n_levels} finite, nonnegative "
                             f"values, got {v.tolist()}")
        pair.append(v)
    return tuple(pair)


def _counts(value, name: str) -> np.ndarray:
    """value as an int64 array: integers, or floats that are integers below
    2**63 in size (such as `np.zeros(n)`). A fraction, a NaN, an infinity
    or a value too large for int64 raises ValueError naming the argument,
    where a cast would truncate, wrap or warn."""
    v = np.asarray(value)
    if v.dtype.kind == "f":
        integral = (v == np.trunc(v)) & (np.abs(v) < 2.0**63)
    else:
        integral = v.dtype.kind in "biu"
    if not np.all(integral):
        raise ValueError(f"{name} must hold integer counts below 2**63 in "
                         f"size, got {v.tolist()}")
    return v.astype(np.int64)


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
        object.__setattr__(self, "n_levels", _count(
            self.n_levels, "n_levels", minimum=1, error=BadN))
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
            # NaN compares false with everything, so it would pass the
            # ordering test, and no JSON manifest can hold NaN or inf
            if not np.isfinite(labels).all():
                raise BadPriceLabels(
                    f"price labels must be finite, got {list(labels)}")
            if any(b <= a for a, b in zip(labels, labels[1:])):
                raise BadPriceLabels("price labels must be strictly increasing")
            object.__setattr__(self, "price_labels", labels)


PARAM_FIELDS = tuple(f.name for f in fields(ModelParams))


@dataclass(frozen=True)
class ScalingLevel:
    """Scaling parameter L >= 1; per-trader rates are gamma/L, beta/L, alpha/L."""

    l: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "l", _count(self.l, "scaling level",
                                             minimum=1))


@dataclass(frozen=True)
class DiscreteState:
    """Integer occupancies (b, s): buyers and sellers per level."""

    b: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        b, s = _counts(self.b, "b"), _counts(self.s, "s")
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
        """The number of traders, summed as Python ints, which cannot wrap
        as an int64 sum can."""
        return sum(self.b.tolist()) + sum(self.s.tolist())


@dataclass(frozen=True)
class FluidState:
    """Finite, nonnegative real occupancies (x, y), the scaled state."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x, y = _pair(self.x, self.y, np.size(self.x), ("x", "y"))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_levels(self) -> int:
        return self.x.shape[0]


class EventKind(IntEnum):
    """Transition kinds. The integer value is the canonical block rank;
    `TRANSITIONS` gives each kind's levels in walk order."""

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


# The transition table: one row per EventKind, in rank order. A row holds
# the ModelParams field behind the rate; the 0-based levels where the kind
# applies, in walk order, as a function of N (an arrival's is its entry
# level); and the kind's +-1 increments as (side, level offset, sign), side
# 0 for the buyers b and 1 for the sellers s. An arrival's rate is the
# field; any other kind's is the field over L times its count at the level,
# which `_taken` reads off the increments.
TRANSITIONS = {
    EventKind.BUYER_ARRIVAL: ("lambda_b", lambda n: range(1), ((0, 0, 1),)),
    EventKind.SELLER_ARRIVAL:
        ("lambda_s", lambda n: range(n - 1, n), ((1, 0, 1),)),
    EventKind.TRADE: ("gamma", lambda n: range(n), ((0, 0, -1), (1, 0, -1))),
    EventKind.BUYER_QUIT: ("beta", lambda n: range(n), ((0, 0, -1),)),
    EventKind.SELLER_QUIT:
        ("beta", lambda n: range(n - 1, -1, -1), ((1, 0, -1),)),
    EventKind.BUYER_MOVE:
        ("alpha", lambda n: range(n - 1), ((0, 0, -1), (0, 1, 1))),
    EventKind.BUYER_EXIT_TOP:
        ("alpha", lambda n: range(n - 1, n), ((0, 0, -1),)),
    EventKind.SELLER_MOVE:
        ("alpha", lambda n: range(n - 1, 0, -1), ((1, 0, -1), (1, -1, 1))),
    EventKind.SELLER_EXIT_BOTTOM:
        ("alpha", lambda n: range(1), ((1, 0, -1),)),
}


def _taken(increments, book) -> list:
    """The entries of book, a (buyers, sellers) pair, for the sides that a
    kind with these increments takes a trader from: the kind's rate count
    at a level is the smallest of their counts there. An arrival takes
    from no side and has no count."""
    return [book[side] for side, _, sign in increments if sign < 0]


# The tally of each event kind: the field of `simulate.EventCounters` that
# counts it, and its row's name in every rendering of the simulator's engine
TALLIES = dict(zip(EventKind, (
    "buyer_arrivals seller_arrivals trades buyer_quits seller_quits "
    "buyer_moves buyer_exit_top seller_moves seller_exit_bottom").split(),
    strict=True))

# The engine's local for each level block's rate unit, the field over L
_UNITS = {"gamma": "rt", "beta": "rq", "alpha": "rm"}


def _indent(lines: str, depth: int = 12) -> str:
    """lines indented by depth spaces, by default to sit in the Python
    engine's dispatch."""
    pad = " " * depth
    return pad + lines.replace("\n", "\n" + pad)


def _blocks():
    """The dispatch's blocks, the rows of `TRANSITIONS` grouped by rate
    (field, and the sides `_taken` reads off the increments), in rank
    order, which puts each alpha-move with the exit at its far edge.
    Yields (name, kinds, unit, sides, up) per block: its first kind's name
    in lower case; its kinds; the engine's rate unit (`_UNITS`), None for
    an arrival, which fires at its one level unwalked; the names of the
    sides, "b" and "s", whose smaller count times the unit is its weight at
    a level, and whose counts are all nonzero where a level is occupied;
    and whether it walks up from level 0, else down from the top, read off
    its first row for a book of two levels. Both renderings of the engine,
    in Python and in C, render their blocks from these."""
    for (field, sides), rows in groupby(
            TRANSITIONS.items(),
            key=lambda row: (row[1][0], _taken(row[1][2], "bs"))):
        kinds = [kind for kind, _ in rows]
        yield (kinds[0].name.lower(), kinds, _UNITS[field] if sides else None,
               sides, TRANSITIONS[kinds[0]][1](2)[0] == 0)


def _actions(kind: EventKind, at) -> list[tuple[str | None, str]]:
    """What firing one event of kind does, read off its row of
    `TRANSITIONS`, as (guard, statement) pairs, each statement to run when
    its guard holds (always for None), in expressions that read alike in
    Python and C. at(offset) is the index suffix of b and s that names the
    level offset from the one it fires at. In order: the counts at that
    level, the side totals B and S by the row's net change on each side,
    M, the kind's tally at that level (every kind, arrivals and exits
    included, is tallied per level), and a move's destination count with
    its M test.
    M moves unconditionally when both sides change alike; else min(b, s)
    moves with b exactly when b <= s after a buyer arrives and when b < s
    after one leaves (mirrored for sellers)."""
    def add(name, sign):
        return None, f"{name} {'+-'[sign < 0]}= 1.0"

    def moves_min(side, sign, level):
        return (f"{'bs'[side]}{level} {'<' if sign < 0 else '<='} "
                f"{'sb'[side]}{level}", add("M", sign)[1])

    increments = TRANSITIONS[kind][2]
    here = [(side, sign) for side, offset, sign in increments if not offset]
    nets = [sum(sign for s, _, sign in increments if s == side)
            for side in (0, 1)]
    actions = [add("bs"[side] + at(0), sign) for side, sign in here]
    actions += [add(total, net) for total, net in zip("BS", nets) if net]
    if len(here) == 2 and here[0][1] == here[1][1]:
        actions.append(add("M", here[0][1]))
    else:
        actions += [moves_min(side, sign, at(0)) for side, sign in here]
    actions.append((None, f"{TALLIES[kind]}{at(0)} += 1"))
    for side, offset, sign in increments:
        if offset:
            actions += [add("bs"[side] + at(offset), sign),
                        moves_min(side, sign, at(offset))]
    return actions


def _in_list(k: str, offset: int) -> str:
    """The index suffix of the level offset from level k."""
    return f"[{k} {'+-'[offset < 0]} {abs(offset)}]" if offset else f"[{k}]"


def enumerate_events(
    state: DiscreteState, params: ModelParams, scale: ScalingLevel
) -> list[Event]:
    """Exhaustive, duplicate-free list of positive-rate events, read off
    `TRANSITIONS` in its canonical order: EventKind rank, then each row's
    levels in walk order (trades 1..N, buyer quits 1..N, seller quits
    N..1, buyer moves 1..N-1 and the top exit, seller moves N..2 and the
    bottom exit). Buyers enter at level 1 and sellers at level N, and the
    stationary profile decays away from each entry level, so a walk over
    this order meets most of a trader block's rate first. Zero-rate events
    are omitted. The sum of rates equals
    lambda_b + lambda_s + ((alpha+beta) * (sum b + sum s) + gamma * sum min(b,s)) / L.
    """
    n = params.n_levels
    if state.n_levels != n:
        raise ValueError("state dimension does not match params.n_levels")
    # Python ints index and multiply faster than numpy scalars, same bits
    book = (state.b.tolist(), state.s.tolist())
    events = []
    for kind, (field, levels, increments) in TRANSITIONS.items():
        if not (taken := _taken(increments, book)):
            events.append(Event(kind, None, getattr(params, field)))
            continue
        unit = getattr(params, field) / scale.l
        if unit > 0.0:
            counts = [*zip(*taken)]  # each level's counts on those sides
            for k in levels(n):
                c = min(counts[k])
                if c > 0:
                    events.append(Event(kind, k + 1, unit * c))
    return events


def apply_event(state: DiscreteState, event: Event) -> DiscreteState:
    """Apply the +-1 increments of one event; raises DisabledEvent if the
    event could not fire in this state: a level outside its row's levels,
    an arrival with a level, or a zero count."""
    _, levels, increments = TRANSITIONS[event.kind]
    where = levels(state.n_levels)
    book = (state.b.copy(), state.s.copy())
    taken = _taken(increments, book)
    if taken:
        k = None if event.level is None else event.level - 1
    else:
        k = where[0] if event.level is None else None
    if k not in where or any(side[k] < 1 for side in taken):
        raise DisabledEvent(f"{event.kind.name} cannot fire at level "
                            f"{event.level} in this state")
    for side, offset, sign in increments:
        book[side][k + offset] += sign
    return DiscreteState(*book)


def scale_state(state: DiscreteState, scale: ScalingLevel) -> FluidState:
    """Componentwise division by L."""
    L = float(scale.l)
    return FluidState(state.b / L, state.s / L)
