"""The simulator's engine in C: a rendering of the chunk function that
`simulate._Chain` runs, built on first use and loaded with `ctypes`.

`simulate._engine` imports this module the first time a chain runs, so
`import lobfluid` does not parse it. The C source is rendered from the
same description as the Python engine: the blocks of `simulate._blocks`,
the statements of `simulate._actions` (read off `model.TRANSITIONS`) and
the tally rows of `simulate.TALLIES`. It keeps the same block order,
the same sequential subtraction, the same clock test, and float counts
exact below 2**53, and it takes log1p from the platform's libm, as
`math.log1p` does. It is built and cached by `_cbuild`, with no
fast-math, so each product and sum rounds as Python's does, and it gives
the Python engine's bits.

Division of work: the C function `lobfluid_chunk` is the chunk function
itself, and `load` returns the `bind` that computes every pointer into
the chain's buffers once, at its set-up. `simulate._Chain` makes those
buffers, resets them before each run, and keeps the chunk loop, the
budget and the draw contract: it fills its uniform buffer with each
`Generator.random` chunk of CHUNK pairs, and C runs that chunk's events
in place on the chain's float64 and int64 arrays (book, clock with B, S
and M, next sample, tallies and samples). Each tally is a pointer to its
row of the chain's tally matrix, so C stores nothing back, and the chain
fills the samples left when the run ends.

`load` returns None, and the Python engine runs, when no compiler `cc` is
found, the build fails, the library's canary `fused` shows a multiply
and add fused into one rounding, or the load-time check (`_agrees`) finds
the C engine disagreeing with the Python engine, or raising, on its runs.
The canary is there because the runs alone can miss a fused library:
built with `-ffp-contract=fast -march=native`, one passed them at 6 of
seed bases 1 to 20.
"""

from __future__ import annotations

import ctypes
import functools
from string import Template

import numpy as np

from . import _cbuild
from .errors import BudgetExceeded, SolverError
from .model import DiscreteState, ModelParams, ScalingLevel
from .simulate import (
    TALLIES,
    _actions,
    _blocks,
    _Chain,
    _in_list,
    _indent,
    _python_engine,
)

SEED = 2012  # of the load-time check's uniforms

# The chunk function, with $fields filled in by _source: the tallies, one
# pointer per row of the tally matrix, written in place, and each block of
# the dispatch. It runs pairs 0..size-1 of u (holding, selection) and
# returns the index of the pair that ended the run, or size if no pair
# ended it; the per-event path is the Python engine's. The dispatch repeats
# each block weight where Python names it w, since C leaves the order of a
# comparison's operands unspecified; the product is the same double.
_ENGINE = Template("""\
#include <math.h>
#include <string.h>

long long lobfluid_chunk(const double *u, long long size, const double *rates,
                         double t_end, const double *sample_ts, long long m,
                         long long n, double *b, double *s, double *clock,
                         long long *next_sample, long long *tally, double *xs,
                         double *ys)
{
    const double lam_b = rates[0], lam_s = rates[1], lam = rates[2];
    const double rt = rates[3], rq = rates[4], rm = rates[5], rqm = rates[6];
    const long long top = n - 1;
    double t = clock[0], B = clock[1], S = clock[2], M = clock[3];
    long long si = *next_sample;
    double stop = si < m && sample_ts[si] <= t_end ? sample_ts[si] : t_end;
    double target, w;
    long long i, k;
$tallies
    for (i = 0; i < size; i++) {
        const double w_trade = rt * M;
        const double rate = lam + rqm * (B + S) + w_trade;
        t -= log1p(-u[2 * i]) / rate;
        if (t >= stop) {
            if (t >= t_end)
                break;
            for (; si < m && sample_ts[si] <= t; si++) {
                memcpy(xs + si * n, b, n * sizeof *b);
                memcpy(ys + si * n, s, n * sizeof *s);
            }
            stop = si < m && sample_ts[si] <= t_end ? sample_ts[si] : t_end;
        }
        target = u[2 * i + 1] * rate;
        if (target < lam_b) {
$buyer_arrival
        } else if ((target -= lam_b) < lam_s || !(B || S)) {
$seller_arrival
        } else if ((target -= lam_s) < w_trade) {
$trade
        } else if ((target -= w_trade) < rq * B) {
$buyer_quit
        } else if ((target -= rq * B) < rq * S) {
$seller_quit
        } else if ((target -= rq * S) < rm * B || !S) {
$buyer_move
        } else {
            target -= rm * B;
$seller_move
        }
    }
    clock[0] = t;
    clock[1] = B;
    clock[2] = S;
    clock[3] = M;
    *next_sample = si;
    return i;
}

/* the load-time canary: a * b + c in two roundings, as Python makes it,
   unless the build fused it into one */
double fused(double a, double b, double c)
{
    return a * b + c;
}
""")

# A level block's walk, as `simulate._LIST_WALK`: the entry level inline,
# then the levels after it in walk order, each test subtracting the weight
# tested before it; past the block's end, the last occupied level in walk
# order, the entry level when no other is occupied.
_WALK = Template("""\
k = $entry;
w = $weight;
if (!(target < w)) {
    for (k = $first; k != $end; k$step) {
        target -= w;
        w = $weight;
        if (target < w)
            break;
    }
    if (k == $end)
        for (k = $last; k != $entry && !($occupied); k$back)
            ;
}""")

# (entry, first, end, step, last, back) of a walk up from level 0 and of
# one down from the top
_DIRECTIONS = {True: ("0", "1", "n", "++", "top", "--"),
               False: ("top", "top - 1", "-1", "--", "0", "++")}


def _source() -> str:
    """The C source of the engine's chunk function."""
    blocks = {}
    for name, kinds, unit, sides, up in _blocks():
        entry, first, end, step, last, back = _DIRECTIONS[up]
        at = functools.partial(_in_list, "k" if unit else entry)
        fire, *leave = ["\n".join(
            f"{statement};" if guard is None
            else f"if ({guard})\n    {statement};"
            for guard, statement in _actions(kind, at)) for kind in kinds]
        if leave:
            fire = (f"if ({'k < top' if up else 'k > 0'}) {{\n"
                    + _indent(fire, 4) + "\n} else {\n"
                    + _indent(*leave, 4) + "\n}")
        if unit:
            level = [side + "[k]" for side in sides]
            count = (level[0] if len(level) == 1
                     else "({0} < {1} ? {0} : {1})".format(*level))
            fire = _WALK.substitute(
                entry=entry, first=first, end=end, step=step, last=last,
                back=back, weight=f"{unit} * {count}",
                occupied=" && ".join(level)) + "\n" + fire
        blocks[name] = _indent(fire, 12)
    tallies = "\n".join(f"long long *const {name} = tally + {i} * n;"
                        for i, name in enumerate(TALLIES.values()))
    return _ENGINE.substitute(tallies=_indent(tallies, 4), **blocks)


def _runs(bind) -> list:
    """The load-time check's runs on bind, each chain's event count and
    the bytes of every buffer after each run. They take one stream of
    uniforms, seeded SEED, and run two `simulate._Chain`s at N = 4 from a
    book with traders of both sides: two consecutive runs of about 1,500
    events each to t = 200, sampled every 5, which cross chunk boundaries
    and reuse reset buffers, then 60 runs of about 10 events each to t = 1.
    A last-bit difference in one holding time is mostly lost in a clock
    near 100, but shows in one still below 1."""
    params = ModelParams(4, 1.0, 1.5, 0.2, 0.1, 0.4)
    start = DiscreteState(np.array([3, 0, 5, 1]), np.array([0, 2, 4, 6]))
    long_run, short_run = (_Chain(params, ScalingLevel(1), start, t_end,
                                  np.arange(0.0, t_end, 5.0), 10**6,
                                  bind=bind)
                           for t_end in (200.0, 1.0))
    rng = np.random.default_rng(SEED)
    return [(chain.run(rng)[2], *(getattr(chain, name).tobytes() for name in
                                  ("book", "clock", "next_sample", "tally",
                                   "samples")))
            for chain in [long_run] * 2 + [short_run] * 60]


def _agrees(bind) -> bool:
    """The load-time check: the runs of `_runs` on bind end as the Python
    engine's do, byte for byte, and none raises. The clock sums every
    holding time, so this also compares C's log1p with math.log1p."""
    try:
        return _runs(bind) == _runs(_python_engine())
    except (SolverError, BudgetExceeded):
        return False


def load():
    """The C engine's `bind` (see `simulate._Chain`), or None when no
    compiler is found, the build fails, the library fuses a multiply-add
    (`fused(1 + e, 1 - e, -1)` is -e**2, not 0, at e = 2**-30), or the
    load-time check (`_agrees`) finds it disagreeing with the Python
    engine or raising. bind computes every pointer once: the chain makes
    every buffer a contiguous float64 or int64 array and keeps it
    referenced for as long as it can run."""
    library = _cbuild.library("engine", _source())
    if library is None:
        return None
    fused = library.fused
    fused.argtypes = (ctypes.c_double,) * 3
    fused.restype = ctypes.c_double
    e = 2.0 ** -30
    if fused(1.0 + e, 1.0 - e, -1.0) != 0.0:
        return None
    chunk_run = library.lobfluid_chunk
    chunk_run.argtypes = (
        ctypes.c_void_p, ctypes.c_longlong, ctypes.c_void_p, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_longlong, ctypes.c_longlong,
        *[ctypes.c_void_p] * 7)
    chunk_run.restype = ctypes.c_longlong

    def bind(u, rates, t_end, sample_ts, book, clock, next_sample, tally, xs,
             ys):
        u = u.ctypes.data
        fixed = (rates.ctypes.data, t_end, sample_ts.ctypes.data, *xs.shape,
                 book[0].ctypes.data, book[1].ctypes.data, clock.ctypes.data,
                 next_sample.ctypes.data, tally.ctypes.data, xs.ctypes.data,
                 ys.ctypes.data)
        return lambda size: chunk_run(u, size, *fixed)
    return bind if _agrees(bind) else None
