"""The package's one C library, a CPython extension module: the fluid
right-hand side that scipy's ODEPACK extension calls from inside LSODA
(`flow`), the state CSV writer (`states`), the fixed-point solve with its
residual (`solve`), the fixed point's classification with its trade
volume (`classify`) and the simulator's engine (`engine`).

The first `ode._solve`, state CSV, fixed-point solve or classification,
or chain of a process (`ode._c_flow`, `output._c_write`,
`fixed_point._c_solve`, `fixed_point._c_classify`, `simulate._engine`)
imports this module. It imports only `ode`, `model` and `errors` of the
package (a check imports its twin's module when it runs), so an ODE run
loads neither the simulator nor `subprocess` when the library is cached.
The library is built and loaded once per process (`_extension`), and
each accessor runs its own function's load-time check alone, so a
function refused by its check leaves the others in use.

Division of work: each function is the compiled form of one Python twin,
its check's oracle and, where it cannot run, its fallback at every size:
`flow` of `ode._flow`; `states` of `output._state_rows` in the per-row
"%.17g" format `output._state_line`, written by `_write_rows` as every
CSV is; `solve` of `fixed_point._pattern_solve` followed by
`fixed_point.fixed_point_residual`, behind both solver names (the
residual bound stays in Python); `classify` of `fixed_point._classify`
followed by `fixed_point._volume`, numpy's sum (the regime labels and the
refusals' messages stay in Python); `engine` of
`simulate._python_engine`.

`flow(t, z, out, rates)`: z holds any number of stacked level-major
states (x_1, y_1, x_2, y_2, ...) of 2N components each, out is a float64
array of z's size, and rates is `rates(params)`, the float64 array
(N, lambda_b, lambda_s, alpha, beta, gamma). It writes each state's
equations into out through the buffer protocol and returns out. Each
equation makes `ode._flow`'s operations in its order, (inflow - (beta +
alpha) * v) - gamma * min, and the min takes y on a tie, as numpy's
elementwise minimum does, so one function serves every N and the stacked
pair of a comparison check, with the numpy form's bits.

`solve(rates, x, y)`: x and y are float64 arrays of N values. It writes
the point of `fixed_point._pattern_solve` into them with Python's
operations in Python's order (libm's `log`, `log1p` and `exp`, which
Python's math module calls, and Python's first-wins `min` and `max`),
then runs `flow`'s equations on it and returns (trials, residual) with
`fixed_point_residual`'s bits. It returns its twin's result for every
admitted input, non-finite points and a NaN residual included: a trial's
NaN fails each comparison in C as in Python, and the twin raises on no
admitted rates.

`classify(gamma, x, y)`: x and y are float64 vectors of N >= 1 values,
read with their strides. It returns (ell, refusal, volume): refusal is
the index in `fixed_point._REFUSALS` of the first of `_classify`'s
refusals that applies, in its order (a value that is not finite, x not
falling by more than the slack 1e-9 max(max |x|, max |y|, 1), y not
rising by more than it, x > y not a prefix), or 0, and then ell counts
the levels where x > y and volume is gamma times min(x_k, y_k) summed as
numpy's pairwise sum adds `np.minimum(x, y)`, from its identity 0.0, so
with `_volume`'s bits; where it refuses, ell is 0 and volume 0.0. A
numpy that sums otherwise fails the function's check, and the twin runs.

`states(write, taus, x, y)`: taus is a float64 vector of R values and x
and y are float64 matrices of R rows and N columns, read with their
strides, so views are not copied. Row i is taus[i], x[i], y[i],
comma-separated and ended by a newline, handed to write in bytes objects
of CHUNK (64 KiB) bytes, the last one shorter. Each cell is formatted by
`PyOS_double_to_string(v, 'g', 17, 0, NULL)`, the call that
`"%.17g" % v` makes (a C `printf` would write "-nan" where Python writes
"nan"). A trajectory repeats few values, so the texts are cached in a
direct-mapped table of 2**TABLE_BITS entries, allocated once per call and
keyed on the cell's 64-bit pattern, so 0.0 and -0.0, and NaNs of either
sign, each keep their own text; a pattern whose entry another one took
is formatted again.

`engine(u, size, rates, t_end, sample_ts, book, clock, next_sample,
tally, xs, ys)`: the chunk function on a chain's buffers, which it checks
and takes on each call, called as `simulate._Chain` calls the Python
engine. `_engine_source` renders it from what the Python engine's source
is rendered from, `model._blocks`, `model._actions` and `model.TALLIES`,
so rendering it loads no simulator. It keeps the Python engine's block
order, sequential subtraction, clock test and float counts, and takes
log1p from libm, as `math.log1p` does.

Build and cache: `cc -O2 -ffp-contract=off`, no fast-math, with the
interpreter's `Python.h`, once per source into `$XDG_CACHE_HOME/lobfluid`
(else `~/.cache/lobfluid`, made with mode 0700) as `ext-<crc32 of the
source>` plus SUFFIX, beside that source. A cached library loads only
where its stored source equals SOURCE byte for byte; the files of any
other source (the `engine-*` files of the engine's former library too)
are never read again. `os.replace` installs the library before its
source, so no process loads a half-written one; where the cache cannot
be written, the library is built in a directory private to the process.
The canary `fused` refuses the whole library where the build fused a
multiply and add into one rounding: an engine built with
`-ffp-contract=fast -march=native` passed its check's runs at 6 of seed
bases 1 to 20. `load(name)` returns None, and the caller runs the
function's Python twin, when no `cc` or no `Python.h` is found, the build
fails, the canary refuses it, or the function's check finds it differing
from that twin (or, for the engine, raising).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import random
import shutil
import tempfile
import zlib
from contextlib import suppress
from string import Template

import numpy as np

from .errors import BudgetExceeded, NonMonotoneInput, SolverError
from .model import (
    TALLIES,
    DiscreteState,
    ModelParams,
    ScalingLevel,
    _actions,
    _blocks,
    _in_list,
    _indent,
    rates,
)
from .ode import _flow, _pack

MODULE = "lobfluid_ext"  # the extension's name; its init is PyInit_<name>
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120  # a compiler that hangs must not hang the run
SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]  # of the library's file
CHECK_SIZES = (1, 2, 7, 60)  # level counts of the flow check's states
SOLVE_SIZES = (1, 2, 7, 60, 178)  # level counts of the solve check's draws
# level counts of the classify check's interleaved points: both sides of
# numpy's pairwise sum's 8-value and 128-value thresholds, and two splits
CLASSIFY_SIZES = (1, 2, 7, 8, 128, 129, 256, 1000)
SEED = 2012  # of the load-time checks' draws

# The extension module MODULE, with $engine filled in by _engine_source;
# flow's expressions are _flow's, operation for operation, and solve's and
# classify's are fixed_point's, in its order. The writer's table has
# 2**TABLE_BITS entries of 48 bytes: on the benchmark's 4,001 x 101
# trajectory (a shared 2-core Xeon, gcc 12.2, Python 3.11) 2**14 (768 KiB)
# wrote fastest of 2**10 ... 2**16, 9.1 ms against 13.3 at 2**10
# (CHANGES.md has the runs)
_SOURCE = Template("""\
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define TABLE_BITS 14
#define TEXT_MAX 24  /* the longest text, as of -4.9406564584124654e-324 */
#define CHUNK 65536
#define FLOW_TYPES "flow takes float64 arrays"
#define STATES_TYPES "states takes a float64 vector and two matrices"
#define SOLVE_TYPES "solve takes float64 arrays"
#define CLASSIFY_TYPES "classify takes float64 vectors"
#define INT64 (sizeof(long) == 8 ? "l" : "q")  /* numpy's int64 code */

/* a view of a buffer of 8-byte items of struct code format ("d" for
   float64, INT64 for int64) got with flags, of ndim dimensions (of any
   where ndim is 0), or -1 with an exception set: message, a TypeError,
   where the buffer holds another type or has another dimension */
static int
typed(PyObject *object, Py_buffer *view, int flags, int ndim,
      const char *format, const char *message)
{
    if (PyObject_GetBuffer(object, view, flags | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != 8 || strcmp(view->format, format) != 0
            || (ndim && view->ndim != ndim)) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_TypeError, message);
        return -1;
    }
    return 0;
}

#define doubles(object, view, flags, ndim, message) \
    typed(object, view, flags, ndim, "d", message)

/* 2N, the size of one state, if z and out are of one size, a multiple of
   it, and rates holds six values led by a whole N >= 1; else 0 */
static Py_ssize_t
state_size(const Py_buffer *z, const Py_buffer *out, const Py_buffer *rates)
{
    const double n = rates->len == 6 * (Py_ssize_t) sizeof(double)
        ? ((const double *) rates->buf)[0] : 0.0;
    const Py_ssize_t size = z->len / (Py_ssize_t) sizeof(double);
    if (!(n >= 1.0 && n <= (double) size) || n != (double) (Py_ssize_t) n
            || out->len != z->len || size % (2 * (Py_ssize_t) n))
        return 0;
    return 2 * (Py_ssize_t) n;
}

static void
equations(const double *v, double *d, Py_ssize_t size, Py_ssize_t width,
          const double *r)
{
    const double lambda_b = r[1], lambda_s = r[2], a = r[3], g = r[5];
    const double bpa = r[4] + a;
    Py_ssize_t s, k;
    for (s = 0; s < size; s += width)
        for (k = s; k < s + width; k += 2) {
            const double x = v[k], y = v[k + 1];
            const double trade = g * (x < y ? x : y);
            const double x_in = k > s ? a * v[k - 2] : lambda_b;
            const double y_in = k + 2 < s + width ? a * v[k + 3] : lambda_s;
            d[k] = x_in - bpa * x - trade;
            d[k + 1] = y_in - bpa * y - trade;
        }
}

static PyObject *
flow(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer z, out, rates;
    PyObject *result = NULL;
    Py_ssize_t width;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "flow takes (t, z, out, rates)");
        return NULL;
    }
    if (doubles(args[1], &z, PyBUF_C_CONTIGUOUS, 0, FLOW_TYPES) < 0)
        return NULL;
    if (doubles(args[2], &out, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS, 0,
                FLOW_TYPES) == 0) {
        if (doubles(args[3], &rates, PyBUF_C_CONTIGUOUS, 0, FLOW_TYPES) == 0) {
            width = state_size(&z, &out, &rates);
            if (width) {
                equations(z.buf, out.buf, z.len / (Py_ssize_t) sizeof(double),
                          width, rates.buf);
                Py_INCREF(args[2]);
                result = args[2];
            } else
                PyErr_SetString(PyExc_ValueError,
                                "flow takes states of 2N values, an out of "
                                "their size and the rates (N, lambda_b, "
                                "lambda_s, alpha, beta, gamma)");
            PyBuffer_Release(&rates);
        }
        PyBuffer_Release(&out);
    }
    PyBuffer_Release(&z);
    return result;
}

/* the constants of fixed_point._trials, computed once per solve */
struct trials {
    Py_ssize_t n;
    double kappa, one_minus_kappa, log_r, log_rho, log_k, log_lb, log_ls;
};

/* fixed_point._kappa's (kappa, 1 - kappa) into t, in its three cases */
static void
kappa(double a, double b, double g, struct trials *t)
{
    double ga = g * a, q = b * (2.0 * a + b + g);

    if (!(ga + q < HUGE_VAL) || ga + q == 0.0) {
        const double least = g < a ? g : a, beta = b;  /* min(a, g) */
        double m = a;  /* max(a, b, g): the first of the largest */

        if (b > m)
            m = b;
        if (g > m)
            m = g;
        a /= m;
        b /= m;
        g /= m;
        ga = g * a;
        q = b * (2.0 * a + b + g);
        if (ga + q == 0.0) {
            ga = least;
            q = beta * (2.0 * a + b + g);
        }
    }
    t->kappa = ga / (ga + q);
    t->one_minus_kappa = q / (ga + q);
}

/* fixed_point._log_ratio: log(rate / a), or log(rate) - log(a) where the
   quotient underflows to 0 or overflows to inf */
static double
log_ratio(double rate, double a)
{
    const double ratio = rate / a;

    return 0.0 < ratio && ratio < HUGE_VAL ? log(ratio) : log(rate) - log(a);
}

/* fixed_point._over_exp: d / exp(log_w), saturating near 1e300 */
static double
over_exp(double d, double log_w)
{
    double power;

    if (d == 0.0)
        return 0.0;
    power = log(fabs(d)) - log_w;
    return copysign(exp(690.0 < power ? 690.0 : power), d);
}

/* the trial at crossing index ell, (X, Y, log_s), into out */
static void
trial(const struct trials *t, Py_ssize_t ell, double *out)
{
    const double log_a = t->log_lb + (double) ell * t->log_r;
    const double log_b = t->log_ls + (double) (t->n - ell) * t->log_r;
    const double log_s = log_b > log_a ? log_b : log_a;
    const double rhs_a = exp(log_a - log_s);
    const double rhs_b = exp(log_b - log_s);
    const double log_u = (double) ell * t->log_rho;
    const double log_v = (double) (t->n - ell) * t->log_rho;
    double log_w = t->log_k, u, v, det, num_x, num_y;

    if (log_u > log_w)
        log_w = log_u;
    if (log_v > log_w)
        log_w = log_v;
    u = exp(log_u - log_w);
    v = exp(log_v - log_w);
    det = (exp(t->log_k - log_w)
           + t->kappa * t->kappa * (u + v - u * exp(log_v)));
    num_x = (over_exp(rhs_a - rhs_b + t->one_minus_kappa * rhs_b, log_w)
             + t->kappa * u * rhs_b);
    num_y = (over_exp(rhs_b - rhs_a + t->one_minus_kappa * rhs_a, log_w)
             + t->kappa * v * rhs_a);
    out[0] = num_x / det;
    out[1] = num_y / det;
    out[2] = log_s;
}

/* fixed_point._pattern_solve into x and y; its trial count. A trial's
   NaN fails each comparison, as in Python, and ends the bisection */
static Py_ssize_t
pattern(const double *r, double *x, double *y)
{
    const Py_ssize_t n = (Py_ssize_t) r[0];
    const double a = r[3], b = r[4], g = r[5];
    const double bpa = b + a, bpag = bpa + g;
    struct trials t;
    Py_ssize_t lo = 0, hi = n, ell, trials = 0, k;
    double c, found[3], level_y, scale, gain, u;

    t.n = n;
    kappa(a, b, g, &t);
    t.log_r = -log1p(b / a);
    t.log_rho = t.log_r - log1p((b + g) / a);
    t.log_k = (t.one_minus_kappa > 0.0
               ? log(t.one_minus_kappa * (1.0 + t.kappa)) : -HUGE_VAL);
    t.log_lb = log_ratio(r[1], a);
    t.log_ls = log_ratio(r[2], a);
    c = a / (a + b + g);
    for (;;) {
        ell = (lo + hi) / 2;
        trial(&t, ell, found);
        trials++;
        if (c * found[0] > found[1] && ell < hi)
            lo = ell + 1;
        else if (found[0] < c * found[1] && ell > lo)
            hi = ell - 1;
        else
            break;
    }
    /* the trial's y below the crossing; above it min = x, so y does not
       cap x. Where exp(log_s) overflows, in logs, as Python's (log_s is
       finite, -inf or NaN, so an infinite scale is where Python's exp
       raises OverflowError) */
    for (k = n - 1; k >= ell; k--)
        y[k] = HUGE_VAL;
    scale = exp(found[2]);
    level_y = isinf(scale) ? log(fabs(found[1])) + found[2]
        : found[1] * scale;
    for (k = ell - 1; k >= 0; k--)
        if (isinf(scale)) {
            level_y += log(c);
            y[k] = copysign(exp(level_y), found[1]);
        } else {
            level_y *= c;
            y[k] = level_y;
        }
    /* fixed_point._chain forward against y, then backward against x */
    for (gain = r[1], k = 0; k < n; k++) {
        u = gain / bpag;
        if (!(u <= y[k]))
            u = (gain - g * y[k]) / bpa;
        x[k] = u;
        gain = a * u;
    }
    for (gain = r[2], k = n - 1; k >= 0; k--) {
        u = gain / bpag;
        if (!(u <= x[k]))
            u = (gain - g * x[k]) / bpa;
        y[k] = u;
        gain = a * u;
    }
    return trials;
}

/* fixed_point.fixed_point_residual: numpy's max of |equations| at the
   point, packed level-major, so NaN where one is NaN; -1 with
   MemoryError set where memory runs out */
static double
residual(const double *r, const double *x, const double *y)
{
    const Py_ssize_t n = (Py_ssize_t) r[0];
    double *v = PyMem_Malloc(4 * (size_t) n * sizeof(double));
    double largest = 0.0;
    Py_ssize_t k;

    if (v == NULL) {
        PyErr_NoMemory();
        return -1.0;
    }
    for (k = 0; k < n; k++) {
        v[2 * k] = x[k];
        v[2 * k + 1] = y[k];
    }
    equations(v, v + 2 * n, 2 * n, 2 * n, r);
    for (k = 2 * n; k < 4 * n; k++) {
        if (isnan(v[k])) {
            largest = NAN;
            break;
        }
        if (fabs(v[k]) > largest)
            largest = fabs(v[k]);
    }
    PyMem_Free(v);
    return largest;
}

static PyObject *
solve(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer rates, x, y;
    PyObject *result = NULL;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "solve takes (rates, x, y)");
        return NULL;
    }
    if (doubles(args[0], &rates, PyBUF_C_CONTIGUOUS, 0, SOLVE_TYPES) < 0)
        return NULL;
    if (doubles(args[1], &x, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS, 0,
                SOLVE_TYPES) == 0) {
        if (doubles(args[2], &y, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS, 0,
                    SOLVE_TYPES) == 0) {
            const double n = rates.len == 6 * (Py_ssize_t) sizeof(double)
                ? ((const double *) rates.buf)[0] : 0.0;
            const Py_ssize_t size = x.len / (Py_ssize_t) sizeof(double);

            if (!(n >= 1.0 && n == (double) size) || y.len != x.len)
                PyErr_SetString(PyExc_ValueError,
                                "solve takes the rates (N, lambda_b, "
                                "lambda_s, alpha, beta, gamma) and x and y "
                                "of N values");
            else {
                const Py_ssize_t trials = pattern(rates.buf, x.buf, y.buf);
                const double largest = residual(rates.buf, x.buf, y.buf);

                if (!(largest < 0.0))
                    result = Py_BuildValue("(nd)", trials, largest);
            }
            PyBuffer_Release(&y);
        }
        PyBuffer_Release(&x);
    }
    PyBuffer_Release(&rates);
    return result;
}

/* fixed_point._REFUSALS: why a point is not classified, or INTERLEAVES */
enum {INTERLEAVES, NOT_FINITE, X_RISES, Y_FALLS, CROSSES_TWICE};

#define AT(v, k) (*(const double *) ((const char *) (v)->buf \\
                                    + (k) * (v)->strides[0]))

/* fixed_point._classify's refusal of the point (x, y) of n >= 1 levels,
   in its order, and its crossing index into ell where it has none */
static int
refusal(const Py_buffer *x, const Py_buffer *y, Py_ssize_t n, Py_ssize_t *ell)
{
    double scale = 1.0, slack;  /* max(max |x|, max |y|, 1.0) */
    Py_ssize_t k;

    for (k = 0; k < n; k++) {
        if (!isfinite(AT(x, k)) || !isfinite(AT(y, k)))
            return NOT_FINITE;
        if (fabs(AT(x, k)) > scale)
            scale = fabs(AT(x, k));
        if (fabs(AT(y, k)) > scale)
            scale = fabs(AT(y, k));
    }
    slack = 1e-9 * scale;
    for (k = 1; k < n; k++)
        if (AT(x, k) >= AT(x, k - 1) + slack)
            return X_RISES;
    for (k = 1; k < n; k++)
        if (AT(y, k) <= AT(y, k - 1) - slack)
            return Y_FALLS;
    for (*ell = 0, k = 0; k < n; k++)
        *ell += AT(x, k) > AT(y, k);
    for (k = 0; k < *ell; k++)
        if (!(AT(x, k) > AT(y, k)))
            return CROSSES_TWICE;
    return INTERLEAVES;
}

/* min(x_k, y_k) (y on a tie, as numpy's elementwise minimum) summed over
   levels first .. first + n - 1 as numpy's pairwise sum adds them: from
   0.0 below 8 values, in eight accumulators up to 128, and above that
   split at n / 2 rounded down to a multiple of 8 */
static double
pairwise(const Py_buffer *x, const Py_buffer *y, Py_ssize_t first,
         Py_ssize_t n)
{
#define MIN(k) (AT(x, k) < AT(y, k) ? AT(x, k) : AT(y, k))
    double r[8], sum = 0.0;
    Py_ssize_t i, j, half;

    if (n < 8) {
        for (i = first; i < first + n; i++)
            sum += MIN(i);
        return sum;
    }
    if (n > 128) {
        half = n / 2 - n / 2 % 8;
        return (pairwise(x, y, first, half)
                + pairwise(x, y, first + half, n - half));
    }
    for (j = 0; j < 8; j++)
        r[j] = MIN(first + j);
    for (i = 8; i < n - n % 8; i += 8)
        for (j = 0; j < 8; j++)
            r[j] += MIN(first + i + j);
    sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        sum += MIN(first + i);
    return sum;
#undef MIN
}

static PyObject *
classify(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer x, y;
    PyObject *result = NULL;
    double gamma;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "classify takes (gamma, x, y)");
        return NULL;
    }
    if ((gamma = PyFloat_AsDouble(args[0])) == -1.0 && PyErr_Occurred())
        return NULL;
    if (doubles(args[1], &x, PyBUF_STRIDES, 1, CLASSIFY_TYPES) < 0)
        return NULL;
    if (doubles(args[2], &y, PyBUF_STRIDES, 1, CLASSIFY_TYPES) == 0) {
        const Py_ssize_t n = x.shape[0];

        if (n < 1 || y.shape[0] != n)
            PyErr_SetString(PyExc_ValueError,
                            "classify takes gamma and x and y of N >= 1 "
                            "values");
        else {
            Py_ssize_t ell = 0;
            const int refused = refusal(&x, &y, n, &ell);
            /* numpy's sum starts from its identity, 0.0 */
            const double volume = refused ? 0.0
                : gamma * (0.0 + pairwise(&x, &y, 0, n));

            result = Py_BuildValue("(nid)", refused ? 0 : ell, refused,
                                   volume);
        }
        PyBuffer_Release(&y);
    }
    PyBuffer_Release(&x);
    return result;
}

$engine

/* a cached text: the cell's bit pattern and its text; size 0 is empty */
struct entry {
    uint64_t bits;
    size_t size;
    char text[32];
};

struct writer {
    PyObject *write;
    struct entry *table;
    char *out;       /* CHUNK bytes and room for one more cell */
    Py_ssize_t used;
};

/* e's text: v as '%.17g' % v writes it; -1 with an exception set */
static int
format(double v, struct entry *e)
{
    char *text = PyOS_double_to_string(v, 'g', 17, 0, NULL);
    size_t size;

    if (text == NULL)
        return -1;
    size = strlen(text);
    if (size > TEXT_MAX) {
        PyMem_Free(text);
        PyErr_SetString(PyExc_SystemError, "a '%.17g' text is too long");
        return -1;
    }
    memcpy(e->text, text, size);
    PyMem_Free(text);
    e->size = size;
    return 0;
}

/* hands the first size bytes of out to write and moves the rest to the
   front; -1 with an exception set */
static int
flush(struct writer *w, Py_ssize_t size)
{
    PyObject *chunk = PyBytes_FromStringAndSize(w->out, size), *result;

    if (chunk == NULL)
        return -1;
    result = PyObject_CallOneArg(w->write, chunk);
    Py_DECREF(chunk);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    memmove(w->out, w->out + size, (size_t) (w->used - size));
    w->used -= size;
    return 0;
}

/* appends the text of the double at p and then separator */
static int
cell(struct writer *w, const char *p, char separator)
{
    uint64_t bits;
    struct entry *e;

    memcpy(&bits, p, sizeof bits);
    /* Fibonacci hashing: the top bits of the pattern times 2**64 / phi */
    e = &w->table[(bits * UINT64_C(0x9E3779B97F4A7C15)) >> (64 - TABLE_BITS)];
    if (e->size == 0 || e->bits != bits) {
        double v;

        memcpy(&v, p, sizeof v);
        if (format(v, e) < 0)
            return -1;
        e->bits = bits;
    }
    if (w->used >= CHUNK && flush(w, CHUNK) < 0)
        return -1;
    memcpy(w->out + w->used, e->text, sizeof e->text);
    w->used += (Py_ssize_t) e->size;
    w->out[w->used++] = separator;
    return 0;
}

static int
rows(struct writer *w, const Py_buffer *taus, const Py_buffer *x,
     const Py_buffer *y)
{
    const Py_ssize_t n = x->shape[1];
    Py_ssize_t i, k;

    for (i = 0; i < taus->shape[0]; i++) {
        const char *xi = (const char *) x->buf + i * x->strides[0];
        const char *yi = (const char *) y->buf + i * y->strides[0];

        if (cell(w, (const char *) taus->buf + i * taus->strides[0],
                 n ? ',' : '\\n') < 0)
            return -1;
        for (k = 0; k < n; k++)
            if (cell(w, xi + k * x->strides[1], ',') < 0)
                return -1;
        for (k = 0; k < n; k++)
            if (cell(w, yi + k * y->strides[1], k + 1 < n ? ',' : '\\n') < 0)
                return -1;
    }
    return w->used ? flush(w, w->used) : 0;
}

static PyObject *
states(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer taus, x, y;
    struct writer w = {NULL, NULL, NULL, 0};
    PyObject *result = NULL;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "states takes (write, taus, x, y)");
        return NULL;
    }
    w.write = args[0];
    if (doubles(args[1], &taus, PyBUF_STRIDES, 1, STATES_TYPES) < 0)
        return NULL;
    if (doubles(args[2], &x, PyBUF_STRIDES, 2, STATES_TYPES) == 0) {
        if (doubles(args[3], &y, PyBUF_STRIDES, 2, STATES_TYPES) == 0) {
            if (x.shape[0] != taus.shape[0] || y.shape[0] != taus.shape[0]
                    || y.shape[1] != x.shape[1])
                PyErr_SetString(PyExc_ValueError,
                                "states takes R taus and x and y of R rows "
                                "and one column count");
            else if ((w.table = PyMem_Calloc((size_t) 1 << TABLE_BITS,
                                             sizeof *w.table)) == NULL
                     || (w.out = PyMem_Malloc(CHUNK + sizeof w.table->text
                                              + 1)) == NULL)
                PyErr_NoMemory();
            else if (rows(&w, &taus, &x, &y) == 0)
                result = Py_NewRef(Py_None);
            PyMem_Free(w.out);
            PyMem_Free(w.table);
            PyBuffer_Release(&y);
        }
        PyBuffer_Release(&x);
    }
    PyBuffer_Release(&taus);
    return result;
}

static PyMethodDef methods[] = {
    {"classify", (PyCFunction) (void (*)(void)) classify, METH_FASTCALL,
     "classify(gamma, x, y): (ell, refusal, trade volume) of the point; "
     "refusal 0 where it interleaves"},
    {"flow", (PyCFunction) (void (*)(void)) flow, METH_FASTCALL,
     "flow(t, z, out, rates): the fluid equations of z, written into out"},
    {"engine", (PyCFunction) (void (*)(void)) engine, METH_FASTCALL,
     "engine(u, size, rates, t_end, sample_ts, book, clock, next_sample, "
     "tally, xs, ys): the simulator's chunk function on the chain's "
     "buffers; the index of the pair that ended the run, or size"},
    {"fused", fused, METH_VARARGS,
     "fused(a, b, c): a * b + c as the build computes it"},
    {"solve", (PyCFunction) (void (*)(void)) solve, METH_FASTCALL,
     "solve(rates, x, y): the fixed point into x and y, and (trials, "
     "residual)"},
    {"states", (PyCFunction) (void (*)(void)) states, METH_FASTCALL,
     "states(write, taus, x, y): the rows taus[i], x[i], y[i] as CSV text, "
     "handed to write in chunks"},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "lobfluid_ext", NULL, 0, methods,
    NULL, NULL, NULL, NULL
};

/* multi-phase initialisation, so that loading the file registers the
   module nowhere in sys.modules */
PyMODINIT_FUNC
PyInit_lobfluid_ext(void)
{
    return PyModuleDef_Init(&module);
}
""")


# The engine: the chunk function, with $fields filled in by _engine_source
# (a pointer per row of the tally matrix, and each block of the dispatch),
# engine, which checks a chain's buffers and runs chunk on them, and the
# canary fused. chunk runs pairs 0..size-1 of u (holding, selection) and
# returns the index of the pair that ended the run, or size, on the Python
# engine's per-event path; it repeats each block weight where Python names
# it w, since C leaves the order of a comparison's operands unspecified.
_ENGINE = Template("""\
/* kept out of engine: inlined there, it took 5-7% longer per event at
   N = 50 */
Py_NO_INLINE static long long
chunk(const double *u, long long size, const double *rates, double t_end,
      const double *sample_ts, long long m, long long n, double *b,
      double *s, double *clock, long long *next_sample, long long *tally,
      double *xs, double *ys)
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

/* engine's buffers, by argument: the uniforms, the rates, the sample
   times, then those it writes: the book, the clock, the next sample, the
   tallies and the samples */
enum {U, RATES, SAMPLE_TS, BOOK, CLOCK, NEXT_SAMPLE, TALLY, XS, YS, BUFFERS};
static const int argument[BUFFERS] = {0, 2, 4, 5, 6, 7, 8, 9, 10};

static PyObject *
engine(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer v[BUFFERS];
    PyObject *result = NULL;
    long long size;
    double t_end;
    int got;

    if (nargs != 11) {
        PyErr_SetString(PyExc_TypeError, "engine takes 11 arguments");
        return NULL;
    }
    if ((size = PyLong_AsLongLong(args[1])) == -1 && PyErr_Occurred())
        return NULL;
    if ((t_end = PyFloat_AsDouble(args[3])) == -1.0 && PyErr_Occurred())
        return NULL;
    for (got = 0; got < BUFFERS; got++)
        if (typed(args[argument[got]], &v[got], PyBUF_C_CONTIGUOUS
                  | (got >= BOOK ? PyBUF_WRITABLE : 0),
                  got == BOOK || got >= TALLY ? 2 : 0,
                  got == NEXT_SAMPLE || got == TALLY ? INT64 : "d",
                  "engine takes float64 arrays, and int64 next_sample and "
                  "tally") < 0)
            break;
    if (got == BUFFERS) {
        const Py_ssize_t m = v[XS].shape[0], n = v[XS].shape[1];
        const long long si = v[NEXT_SAMPLE].len == 8
            ? *(const long long *) v[NEXT_SAMPLE].buf : -1;

        if (!(size >= 0 && size <= v[U].len / 16 && n >= 1
              && v[RATES].len == 7 * 8 && v[SAMPLE_TS].len == m * 8
              && v[BOOK].shape[0] == 2 && v[BOOK].shape[1] == n
              && v[CLOCK].len == 4 * 8 && si >= 0 && si <= m
              && v[TALLY].shape[0] == $kinds && v[TALLY].shape[1] == n
              && v[YS].shape[0] == m && v[YS].shape[1] == n))
            PyErr_SetString(PyExc_ValueError,
                            "engine takes 2 size uniforms or more, 7 rates, "
                            "m sample times, a book of 2 rows of n >= 1, a "
                            "clock of 4 values, a next_sample from 0 to m, "
                            "a tally of $kinds rows of n, and xs and ys of m "
                            "rows of n");
        else
            result = PyLong_FromLongLong(chunk(
                v[U].buf, size, v[RATES].buf, t_end, v[SAMPLE_TS].buf, m, n,
                v[BOOK].buf, (double *) v[BOOK].buf + n, v[CLOCK].buf,
                v[NEXT_SAMPLE].buf, v[TALLY].buf, v[XS].buf, v[YS].buf));
    }
    while (got-- > 0)
        PyBuffer_Release(&v[got]);
    return result;
}

/* the load-time canary: a * b + c in two roundings, as Python makes it,
   unless the build fused it into one */
static PyObject *
fused(PyObject *Py_UNUSED(module), PyObject *args)
{
    double a, b, c;

    if (!PyArg_ParseTuple(args, "ddd", &a, &b, &c))
        return NULL;
    return PyFloat_FromDouble(a * b + c);
}""")

# A level block's walk, which leaves the level it picks in k, as
# `simulate._LIST_WALK` does (its comment has the walk)
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


def _engine_source() -> str:
    """The C source of the engine, its blocks rendered from
    `model._blocks` and `model._actions`, as `simulate._engine_source`
    renders the Python engine's."""
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
    return _ENGINE.substitute(tallies=_indent(tallies, 4), kinds=len(TALLIES),
                              **blocks)


# the extension's C source, which keys its cached library
SOURCE = _SOURCE.substitute(engine=_engine_source())


def _state(rng: random.Random, n: int, ties: bool) -> np.ndarray:
    """A random packed state of n levels; with ties, about 30% of its
    levels have x == y, and about half, the first two always, are signed
    zeros (x = -0.0, y = 0.0 on even levels and the reverse on odd ones),
    so the min's tie rule shows in the bytes."""
    x = [rng.uniform(0.0, 2.0) for _ in range(n)]
    y = [rng.uniform(0.0, 2.0) for _ in range(n)]
    if ties:
        for k in range(n):
            if rng.random() < 0.3:
                y[k] = x[k]
            if k < 2 or rng.random() < 0.5:
                x[k], y[k] = (-0.0, 0.0) if k % 2 == 0 else (0.0, -0.0)
    return _pack(np.array(x), np.array(y))


def _flow_agrees(flow) -> bool:
    """The flow's load-time check: on states of every CHECK_SIZES level
    count, single and a stacked pair, without and with ties and signed
    zeros, at rates drawn log-uniform on [0.1, 10] (beta 0 on every
    fourth), flow returns its out holding `ode._flow`'s bytes. The draws,
    here and in `_states_agree`, come from the standard library's
    generator, seeded SEED: numpy's random module would add some 5 MiB
    and 10 ms to every process that integrates or writes a state CSV."""
    rng = random.Random(SEED)
    cases = [(n, stacked, ties) for n in CHECK_SIZES for stacked in (1, 2)
             for ties in (False, True)]
    for i, (n, stacked, ties) in enumerate(cases):
        rates_drawn = [math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
                       for _ in range(5)]
        if i % 4 == 0:
            rates_drawn[3] = 0.0  # beta
        p = ModelParams(n, *rates_drawn)
        z = np.concatenate([_state(rng, n, ties) for _ in range(stacked)])
        out = np.empty_like(z)
        if (flow(0.0, z, out, rates(p)) is not out
                or out.tobytes() != _flow(0.0, z, p).tobytes()):
            return False
    return True


# bit patterns of the writer's check beyond its random draws: both zeros,
# the smallest and largest subnormals, the infinities, and NaNs of both
# signs, quiet and with payloads
PATTERNS = (0x0000000000000000, 0x8000000000000000, 0x0000000000000001,
            0x800FFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
            0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
            0xFFF4000000C0FFEE)
# both sides of %g's switch to exponent form (exponent < -4 or >= 17),
# and short decimals with long binary expansions
SWITCH = (1e-5, 1e-4, math.nextafter(1e-4, 0.0), 1e16, 1e17,
          math.nextafter(1e17, 0.0), -1e17, 0.1, 1 / 3)
CHECK_ROWS, CHECK_LEVELS = 40, 3


def _cells(rng: random.Random, count: int) -> np.ndarray:
    """count cells of the writer's check in random order: PATTERNS and
    SWITCH, random bit patterns, random subnormals of both signs, values
    about 1 at random exponents from -7 to 19, and repeats of five
    multiples of 1/300 (table hits). Built as bits, never as Python
    floats, so each NaN keeps its pattern."""
    bits = [*PATTERNS, *(rng.getrandbits(64) for _ in range(count // 4)),
            *(rng.getrandbits(52) | rng.getrandbits(1) << 63
              for _ in range(count // 8))]
    values = [*SWITCH, *(rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-7, 19)
                         for _ in range(count // 4))]
    repeats = [rng.randrange(1, 6) / 300.0
               for _ in range(count - len(bits) - len(values))]
    order = list(range(count))
    rng.shuffle(order)
    return np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64),
                           values, repeats])[order]


def _states_agree(states) -> bool:
    """The writer's load-time check: on CHECK_ROWS rows of CHECK_LEVELS
    levels whose cells are `_cells`, read as strided views of one matrix
    (taus its first column, x its odd columns, y its even ones in reverse
    row order), states writes the bytes of its Python twin, the rows of
    `output._state_rows` in the format `output._state_line`."""
    from .output import _state_line, _state_rows

    width = 1 + 2 * CHECK_LEVELS
    matrix = _cells(random.Random(SEED), CHECK_ROWS * width).reshape(
        CHECK_ROWS, width)
    taus, x, y = matrix[:, 0], matrix[:, 1::2], matrix[::-1, 2::2]
    line = _state_line(CHECK_LEVELS)
    want = "".join(line % row for row in _state_rows(taus, x, y))
    chunks = []
    states(chunks.append, taus, x, y)
    return b"".join(chunks) == want.encode()


def _solve_draws(rng: random.Random):
    """The parameters of the solve's check: at each SOLVE_SIZES level
    count, rates drawn log-uniform on [0.1, 10] in nine kinds, arrivals
    within a factor 1e3 of each other (mostly regime iii beyond one
    level), buyers and sellers 1e100 times the other side's arrivals
    (regimes i and ii), beta 0 at balanced and at unbalanced arrivals,
    gamma alpha overflowing, lambda_b / alpha underflowing to 0 and
    lambda_s / alpha overflowing to inf, and lambda_b 1e300 at alpha
    1e-200, whose y_1 fills in log space at N = 1. Then four more draws of
    that fill at N = 1, with lambda_s within 10% below lambda_b, so that
    x_1 = (lambda_b - gamma y_1) / (beta + alpha) cancels most of lambda_b
    and keeps y_1's last bit; at each level count both rescales of
    `fixed_point._kappa`, where gamma alpha + q overflows though each term
    is finite and where both terms round to 0 once divided by the largest
    rate squared; and a point whose x* is past the float range."""
    for n in SOLVE_SIZES:
        for kind in range(9):
            lambda_b, alpha, beta, gamma = (
                math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
                for _ in range(4))
            lambda_s = lambda_b * 10.0 ** rng.uniform(-3.0, 3.0)
            if kind == 1:
                lambda_s = lambda_b * 1e-100
            elif kind == 2:
                lambda_s = lambda_b * 1e100
            elif kind == 3:
                beta, lambda_s = 0.0, lambda_b
            elif kind == 4:
                beta = 0.0
            elif kind == 5:
                alpha, gamma = alpha * 1e200, gamma * 1e200
            elif kind == 6:
                lambda_b, alpha = lambda_b * 1e-300, alpha * 1e300
            elif kind == 7:
                lambda_s, alpha = lambda_b * 1e300, alpha * 1e-12
            elif kind == 8:
                lambda_b, lambda_s, alpha = (lambda_b * 1e300,
                                             lambda_b * 3e299, alpha * 1e-200)
            yield ModelParams(n, lambda_b, lambda_s, alpha, beta, gamma)
    for _ in range(4):
        lambda_b, alpha, beta, gamma = (
            math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            for _ in range(4))
        lambda_b *= 1e300
        yield ModelParams(1, lambda_b, lambda_b * rng.uniform(0.9, 1.0),
                          alpha * 1e-12, beta, gamma)
    for n in SOLVE_SIZES:
        yield ModelParams(n, 1.0, 1.0, 1.0, 1e-12, 1.7976931348623157e308)
        yield ModelParams(n, 1.0, 1.0, 1.7976931348623157e308, 0.0, 5e-324)
    yield ModelParams(3, 1e300, 1.0, 1e-10, 0.0, 1e-10)


def _solve_agrees(solve) -> bool:
    """The solve's load-time check: on each of `_solve_draws`, seeded
    SEED, solve writes the x and y of its Python twin,
    `fixed_point._pattern_solve`, and returns its trial count and the
    bytes of `fixed_point.fixed_point_residual` at that point."""
    from .fixed_point import _pattern_solve, fixed_point_residual

    for p in _solve_draws(random.Random(SEED)):
        x, y = np.empty(p.n_levels), np.empty(p.n_levels)
        found = solve(rates(p), x, y)
        want_x, want_y, trials = _pattern_solve(p)
        residual = fixed_point_residual(want_x, want_y, p)
        if ((found[0], found[1].hex()) != (trials, residual.hex())
                or x.tobytes() != want_x.tobytes()
                or y.tobytes() != want_y.tobytes()):
            return False
    return True


def _classify_points(rng: random.Random):
    """The points (gamma, x, y) of the classify check, at gamma
    log-uniform on [0.1, 10]: at each CLASSIFY_SIZES level count, four
    interleaved points, x = 2 f**k falling and y = 2 c r**(N-1-k) rising,
    with f and r drawn from [exp(-5 / N), 1] and c log-uniform on
    [0.1, 10], so the crossing falls anywhere and no Python float is made
    per level; then exact ties x_k == y_k, zeros and signed zeros, a sum
    of 1 and seven 0.75 ulps of 1 that rounds apart in other groupings,
    steps of x and of y exactly at the slack and one ulp inside it (at
    scale 1, and at scale 8 set by a y of -8 and by one of 8), each of the
    three refusals, and NaN, inf and -inf at the first, a middle and the
    last level of x and of y."""
    def gamma():
        return math.exp(rng.uniform(math.log(0.1), math.log(10.0)))

    for n in CLASSIFY_SIZES:
        levels = np.arange(n)
        for _ in range(4):
            fall, rise = (rng.uniform(math.exp(-5.0 / n), 1.0)
                          for _ in range(2))
            yield (gamma(), 2.0 * fall ** levels,
                   2.0 * gamma() * rise ** levels[::-1])
    inside = math.nextafter(0.5 + 1e-9, 0.0), math.nextafter(0.5 - 1e-9, 1.0)
    crafted = [
        ([3.0, 2.0, 1.0], [1.0, 2.0, 3.0]), ([1.0], [1.0]),
        ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, 1.0]),
        ([-0.0] * 9, [0.0] * 9), ([0.0] * 9, [-0.0] * 9),
        ([0.0] * 3, [-0.0] * 3), ([1.0, *[3 * 2.0 ** -54] * 7], [1.0] * 8),
        ([0.5, 0.5 + 1e-9], [0.75, 1.0]), ([0.5, inside[0]], [0.75, 1.0]),
        ([0.25, 0.0], [0.5, 0.5 - 1e-9]), ([0.25, 0.0], [0.5, inside[1]]),
        ([4.0, math.nextafter(4.0 + 8e-9, 0.0)], [6.0, 8.0]),
        ([4.0, math.nextafter(4.0 + 8e-9, 0.0)], [-8.0, 5.0]),
        ([0.1, 0.2], [0.05, 0.3]), ([0.3, 0.2], [0.2, 0.1]),
        ([0.1, 0.2], [0.3, 0.05]),
        ([0.5, 0.5 + 5e-10], [0.5 + 1e-10, 0.5 + 2e-10]),
    ]
    for bad in (math.nan, math.inf, -math.inf):
        for k in (0, 2, 4):
            x, y = [1.0, 0.8, 0.6, 0.4, 0.2], [0.1, 0.3, 0.5, 0.7, 0.9]
            crafted.append(([*x[:k], bad, *x[k + 1:]], y))
            crafted.append((x, [*y[:k], bad, *y[k + 1:]]))
    for x, y in crafted:
        yield gamma(), x, y


def _classify_twin(gamma: float, x: np.ndarray,
                   y: np.ndarray) -> tuple[int, int, float]:
    """What classify returns for the point, from its Python twin,
    `fixed_point._classify` and then `fixed_point._volume`: (ell, 0,
    volume), or (0, refusal, 0.0) where _classify refuses it, with
    refusal its message's index in `fixed_point._REFUSALS`."""
    from .fixed_point import _REFUSALS, _classify, _volume

    try:
        ell, _ = _classify(x, y)
    except NonMonotoneInput as refused:
        return 0, _REFUSALS.index(str(refused)), 0.0
    return ell, 0, _volume(gamma, x, y)


def _classify_agrees(classify) -> bool:
    """The classify's load-time check: on each of `_classify_points`,
    seeded SEED, classify returns the crossing index, the refusal and the
    bytes of the trade volume of its Python twin (`_classify_twin`)."""
    for gamma, x, y in _classify_points(random.Random(SEED)):
        x, y = np.array(x), np.array(y)
        ell, refusal, volume = classify(gamma, x, y)
        want_ell, want_refusal, want_volume = _classify_twin(gamma, x, y)
        if ((ell, refusal, volume.hex())
                != (want_ell, want_refusal, want_volume.hex())):
            return False
    return True


def _engine_runs(engine) -> list:
    """The engine check's runs on engine: each one's event count and the
    bytes of every buffer after it. Two `simulate._Chain`s at N = 4, from
    a book with traders of both sides, take one stream seeded SEED: two
    runs of about 1,500 events to t = 200, sampled every 5, which cross
    chunks and reuse reset buffers, then 60 of about 10 events to t = 1,
    whose clocks, still below 1, keep a last-bit difference."""
    from .simulate import _Chain

    params = ModelParams(4, 1.0, 1.5, 0.2, 0.1, 0.4)
    start = DiscreteState(np.array([3, 0, 5, 1]), np.array([0, 2, 4, 6]))
    long_run, short_run = (_Chain(params, ScalingLevel(1), start, t_end,
                                  np.arange(0.0, t_end, 5.0), 10**6,
                                  engine=engine)
                           for t_end in (200.0, 1.0))
    rng = np.random.default_rng(SEED)
    return [(chain.run(rng)[2], *(getattr(chain, name).tobytes() for name in
                                  ("book", "clock", "next_sample", "tally",
                                   "samples")))
            for chain in [long_run] * 2 + [short_run] * 60]


def _engine_agrees(engine) -> bool:
    """The engine's load-time check: the runs of `_engine_runs` on engine
    end as `simulate._python_engine`'s do, byte for byte (the clock sums
    every holding time, so log1p's too), and none raises."""
    from .simulate import _python_engine

    try:
        return _engine_runs(engine) == _engine_runs(_python_engine())
    except (SolverError, BudgetExceeded):
        return False


def _python_flags():
    """The include flag of the interpreter's headers, or None where it has
    no Python.h."""
    import sysconfig

    include = sysconfig.get_path("include")
    if not os.path.isfile(os.path.join(include, "Python.h")):
        return None
    return (f"-I{include}",)


def _module(path: str):
    """The extension module MODULE in the file path, registered nowhere in
    sys.modules; raises ImportError if the file is not one."""
    loader = importlib.machinery.ExtensionFileLoader(MODULE, path)
    spec = importlib.util.spec_from_file_location(MODULE, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _build(command: tuple, source: bytes, path: str):
    """The extension built from source by command (the compiler and its
    flags) and installed as path + SUFFIX, with source as path + ".c",
    then loaded; or None if the compiler fails. Raises OSError if path's
    directory cannot be written, and OSError or ImportError if the module
    cannot be loaded."""
    import subprocess

    fd, c_file = tempfile.mkstemp(suffix=".c", dir=os.path.dirname(path))
    so_file = c_file[:-2] + SUFFIX
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(source)
        try:
            built = subprocess.run(
                [*command, "-o", so_file, c_file, "-lm"],
                capture_output=True, timeout=BUILD_TIMEOUT_S).returncode == 0
        except (OSError, subprocess.SubprocessError):
            built = False
        if not built:
            return None
        os.replace(so_file, path + SUFFIX)
        os.replace(c_file, path + ".c")
    finally:
        for leftover in (c_file, so_file):
            with suppress(FileNotFoundError):
                os.remove(leftover)
    return _module(path + SUFFIX)


@functools.cache
def _extension():
    """The extension module of SOURCE, built and loaded once per process:
    the cached one if its stored source equals SOURCE, else one built now
    (where the cache cannot be written, in a directory private to the
    process). None without a compiler `cc` or Python.h, where the build
    fails, or where the canary shows a multiply and add fused into one
    rounding: `fused(1 + e, 1 - e, -1)` is -e**2, not 0, at e = 2**-30."""
    source = SOURCE.encode()
    stem = f"ext-{zlib.crc32(source):08x}"
    # the XDG Base Directory spec: a relative path is invalid, and ignored
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):
        cache = os.path.join(os.path.expanduser("~"), ".cache")
    cache = os.path.join(cache, "lobfluid")
    path = os.path.join(cache, stem)
    module = None
    with suppress(OSError, ImportError):
        with open(path + ".c", "rb") as cached:
            if cached.read() == source:
                module = _module(path + SUFFIX)
    compiler = shutil.which("cc") if module is None else None
    include = None if compiler is None else _python_flags()
    if include is not None:
        command = (compiler, *FLAGS, *include)
        try:
            os.makedirs(cache, mode=0o700, exist_ok=True)
            module = _build(command, source, path)
        except (OSError, ImportError):  # the cache cannot be written to
            with suppress(OSError, ImportError), \
                    tempfile.TemporaryDirectory() as private:
                module = _build(command, source, os.path.join(private, stem))
    e = 2.0 ** -30
    if module is None or module.fused(1.0 + e, 1.0 - e, -1.0) != 0.0:
        return None
    return module


def load(name: str):
    """The extension's function name ("flow", "states", "solve",
    "classify" or "engine") where the library builds and loads, passes its
    canary, and the function passes its own load-time check
    (`_flow_agrees`, `_states_agree`, `_solve_agrees`, `_classify_agrees`
    or `_engine_agrees`); else None."""
    extension = _extension()
    if extension is None:
        return None
    function = getattr(extension, name)
    agrees = {"flow": _flow_agrees, "states": _states_agree,
              "solve": _solve_agrees, "classify": _classify_agrees,
              "engine": _engine_agrees}[name]
    return function if agrees(function) else None
