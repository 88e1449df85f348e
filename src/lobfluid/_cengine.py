"""The simulator's engine in C: a rendering of `simulate._ENGINE`'s
contract, built on first use and loaded with `ctypes`.

`simulate._engine` imports this module the first time a chain runs, so
`import lobfluid` does not parse it. The C source is rendered from the
same description as the Python engine: the blocks of `simulate._blocks`,
the statements of `simulate._actions` (read off `model.TRANSITIONS`) and
the fields of `EventCounters`. It keeps the same block order, the same
sequential subtraction, the same clock test, and float counts exact below
2**53, and it takes log1p from the platform's libm, as `math.log1p` does.
It is compiled with `-O2 -ffp-contract=off` and no fast-math, so each
product and sum rounds as Python's does, and it gives the Python engine's
bits.

Division of work: Python keeps the chunk loop and the draw contract. It
draws each `Generator.random` chunk of CHUNK pairs and passes it to C by
pointer; C runs that chunk's events, records each sample straight into
preallocated float64 arrays of m x N values and keeps the tallies in an
int64 array, one slot per scalar field of `EventCounters` and N per
per-level field, in rank order. The clock, B, S, M and the next sample's
index carry over from chunk to chunk in small arrays.

Build and cache: the library is built once per source into
`$XDG_CACHE_HOME/lobfluid` (else `~/.cache/lobfluid`, made with mode 0700)
as `engine-<crc32 of the source>.so`, beside the source it was built from.
A cached library is loaded only when that stored source equals the
rendered one byte for byte; any other is rebuilt. The compiler writes to
temporary files that `os.replace` installs, the library before its source,
so concurrent processes never load a half-written library. Where the cache
cannot be written, the library is built in a temporary directory private
to the process. `subprocess` is imported only to build.

`load` returns None, and the Python engine runs, when no compiler `cc` is
found, the build fails, or the load-time check finds the C engine
disagreeing with the Python engine on a short run.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
import zlib
from contextlib import suppress
from dataclasses import fields
from string import Template

import numpy as np

from .simulate import (
    EventCounters,
    _actions,
    _blocks,
    _exhausted,
    _in_list,
    _indent,
    _python_engine,
)

FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120  # a compiler that hangs must not hang the run

# The chunk function, with $fields filled in by _source: the tallies'
# locals, their stores and each block of the dispatch. It runs pairs
# 0..size-1 of u (holding, selection) and returns the index of the pair
# that ended the run, after filling the samples left with the final book,
# or size if no pair ended it; the per-event path is the Python engine's.
# A scalar tally lives in a local and is stored back at the end of the
# chunk; a per-level one is written in place. The dispatch repeats
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
            if (t >= t_end) {
                for (; si < m; si++) {
                    memcpy(xs + si * n, b, n * sizeof *b);
                    memcpy(ys + si * n, s, n * sizeof *s);
                }
                break;
            }
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
$stores
    return i;
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
    tallies, stores = [], []
    scalars = levels = 0
    for f in fields(EventCounters):
        slot = " + ".join([str(scalars)] * bool(scalars)
                          + [f"{levels} * n"] * bool(levels)) or "0"
        if f.type == "int":
            tallies.append(f"long long {f.name} = tally[{slot}];")
            stores.append(f"tally[{slot}] = {f.name};")
            scalars += 1
        else:
            tallies.append(f"long long *const {f.name} = tally + {slot};")
            levels += 1
    return _ENGINE.substitute(tallies=_indent("\n".join(tallies), 4),
                              stores=_indent("\n".join(stores), 4), **blocks)


def _tallies(tally: np.ndarray, n: int) -> tuple:
    """The tallies from the engine's int64 array, as the Python engine
    returns them: an int per scalar field and a list per per-level one."""
    out, at = [], 0
    for f in fields(EventCounters):
        if f.type == "int":
            out.append(int(tally[at]))
            at += 1
        else:
            out.append(tally[at:at + n].tolist())
            at += n
    return tuple(out)


def _wrap(chunk_run):
    """The engine, with the Python engine's signature and return, on the
    library's chunk function: the chunk loop and budget of
    `simulate._ENGINE` around it. Every buffer passed by pointer is a
    contiguous float64 or int64 array that stays referenced here while C
    runs."""
    def engine(rates, b, s, t_end, sample_ts, rng, max_events, chunk):
        n, m = len(b), len(sample_ts)
        book = np.array([b, s], dtype=np.float64)
        clock = np.array([0.0, sum(b), sum(s), sum(map(min, b, s))])
        next_sample = np.zeros(1, dtype=np.int64)
        tally = np.zeros(sum(1 if f.type == "int" else n
                             for f in fields(EventCounters)), dtype=np.int64)
        xs = np.empty(m * n)
        ys = np.empty(m * n)
        unit_rates = np.array(rates, dtype=np.float64)
        times = np.array(sample_ts, dtype=np.float64)
        fixed = (unit_rates.ctypes.data, t_end, times.ctypes.data, m, n,
                 book[0].ctypes.data, book[1].ctypes.data, clock.ctypes.data,
                 next_sample.ctypes.data, tally.ctypes.data, xs.ctypes.data,
                 ys.ctypes.data)
        done = 0
        left = max_events + 1
        while left:
            size = chunk if chunk < left else left
            u = np.ascontiguousarray(rng.random(2 * chunk), dtype=np.float64)
            fired = chunk_run(u.ctypes.data, size, *fixed)
            if fired < size:
                break
            done += size
            left -= size
        else:
            raise _exhausted(max_events, float(clock[0]))
        t, B, S, M = clock.tolist()
        b, s = ([*map(int, side)] for side in book.tolist())
        return (done + fired, xs, ys, b, s, (int(B), int(S), int(M)),
                _tallies(tally, n), t)
    return engine


def _build(compiler: str, source: bytes, path: str):
    """The library built from source and installed as path + ".so", with
    source as path + ".c", or None if the compiler fails. Raises OSError
    if path's directory cannot be written or the library cannot be
    loaded."""
    import subprocess

    fd, c_file = tempfile.mkstemp(suffix=".c", dir=os.path.dirname(path))
    so_file = c_file[:-2] + ".so"
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(source)
        try:
            built = subprocess.run(
                [compiler, *FLAGS, "-o", so_file, c_file, "-lm"],
                capture_output=True, timeout=BUILD_TIMEOUT_S).returncode == 0
        except (OSError, subprocess.SubprocessError):
            built = False
        if not built:
            return None
        os.replace(so_file, path + ".so")
        os.replace(c_file, path + ".c")
    finally:
        for leftover in (c_file, so_file):
            with suppress(FileNotFoundError):
                os.remove(leftover)
    return ctypes.CDLL(path + ".so")


def _library():
    """The engine's library: the cached one if its stored source equals
    the rendered source, else one built now; None without a compiler or
    when the build fails."""
    source = _source().encode()
    name = f"engine-{zlib.crc32(source):08x}"
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.join(os.path.expanduser("~"), ".cache"),
                         "lobfluid")
    path = os.path.join(cache, name)
    with suppress(OSError):
        with open(path + ".c", "rb") as cached:
            if cached.read() == source:
                return ctypes.CDLL(path + ".so")
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        return _build(compiler, source, path)
    except OSError:
        pass  # the cache cannot be written, or not loaded from
    try:
        with tempfile.TemporaryDirectory() as private:
            return _build(compiler, source, os.path.join(private, name))
    except OSError:
        return None


def _agrees(engine) -> bool:
    """The load-time check: a run of about 1,500 events at N = 4, from a
    book with traders of both sides, over several chunks of 256 pairs and
    with 40 samples, gives the same outputs on engine as on the Python
    engine. They include the final clock, which sums every holding time,
    so it also compares C's log1p with math.log1p."""
    def run(engine):
        return engine((1.0, 1.5, 2.5, 0.4, 0.1, 0.2, 0.1 + 0.2),
                      [3, 0, 5, 1], [0, 2, 4, 6], 200.0,
                      [5.0 * i for i in range(40)],
                      np.random.default_rng(2012), 10**6, 256)
    got, want = run(engine), run(_python_engine())
    return (got[0] == want[0] and got[3:] == want[3:]
            and bytes(got[1]) == bytes(want[1])
            and bytes(got[2]) == bytes(want[2]))


def load():
    """The C engine, or None when no compiler is found, the build fails,
    or the load-time check (`_agrees`) finds it disagreeing with the
    Python engine."""
    library = _library()
    if library is None:
        return None
    chunk_run = library.lobfluid_chunk
    chunk_run.argtypes = (
        ctypes.c_void_p, ctypes.c_longlong, ctypes.c_void_p, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_longlong, ctypes.c_longlong,
        *[ctypes.c_void_p] * 7)
    chunk_run.restype = ctypes.c_longlong
    engine = _wrap(chunk_run)
    return engine if _agrees(engine) else None
