"""The fluid right-hand side in C: a CPython extension function that
scipy's ODEPACK extension calls directly from inside LSODA.

`ode._c_flow` imports this module at the first `ode._solve`, so
`import lobfluid` does not parse it, and it imports no module of the
package beyond `ode`, `model` and `_cbuild`: an ODE run loads neither the
simulator nor `subprocess` when the library is cached.

The function is `flow(t, z, out, rates)`. z holds any number of stacked
level-major states (x_1, y_1, x_2, y_2, ...) of 2N components each, out
is a float64 array of z's size, and rates is `rates(params)`, the float64
array (N, lambda_b, lambda_s, alpha, beta, gamma). It writes each state's
equations into out through the buffer protocol and returns out, which the
extension then takes as it is. Each equation makes `ode._flow`'s
operations in its order, (inflow - (beta + alpha) * v) - gamma * min, and
the min takes y on a tie, as numpy's elementwise minimum does, so one
function serves every N and the stacked pair of a comparison check, with
the numpy form's bits.

Build and cache: `_cbuild.extension`, with the interpreter's `Python.h`,
into `flow-<crc32 of the source>` plus the interpreter's extension suffix,
so interpreters of another ABI never share a library. `load` returns None,
and `ode._solve` runs `ode._flow`, when no compiler `cc` or no
`Python.h` is found, the build fails, or the load-time check (`_agrees`)
finds the C flow differing from `ode._flow` in any byte.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import _cbuild
from .model import ModelParams
from .ode import _flow, _pack

MODULE = "lobfluid_flow"  # the extension's name; its init is PyInit_<name>
CHECK_SIZES = (1, 2, 7, 60)  # level counts of the load-time check's states
SEED = 2012  # of the load-time check's states and rates

# The extension module MODULE. flow checks its arguments, then runs each
# state's levels in order; the expressions are _flow's, operation for
# operation.
SOURCE = """\
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* a view of a C-contiguous float64 buffer, or -1 with an exception set */
static int
doubles(PyObject *object, Py_buffer *view, int flags)
{
    if (PyObject_GetBuffer(object, view,
                           flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != sizeof(double) || strcmp(view->format, "d") != 0) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_TypeError, "flow takes float64 arrays");
        return -1;
    }
    return 0;
}

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
    if (doubles(args[1], &z, PyBUF_SIMPLE) < 0)
        return NULL;
    if (doubles(args[2], &out, PyBUF_WRITABLE) == 0) {
        if (doubles(args[3], &rates, PyBUF_SIMPLE) == 0) {
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

static PyMethodDef methods[] = {
    {"flow", (PyCFunction) (void (*)(void)) flow, METH_FASTCALL,
     "flow(t, z, out, rates): the fluid equations of z, written into out"},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "lobfluid_flow", NULL, 0, methods,
    NULL, NULL, NULL, NULL
};

/* multi-phase initialisation, so that loading the file registers the
   module nowhere in sys.modules */
PyMODINIT_FUNC
PyInit_lobfluid_flow(void)
{
    return PyModuleDef_Init(&module);
}
"""


def rates(params: ModelParams) -> np.ndarray:
    """The rates argument of the C flow for params."""
    return np.array([params.n_levels, params.lambda_b, params.lambda_s,
                     params.alpha, params.beta, params.gamma])


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


def _agrees(flow) -> bool:
    """The load-time check: on states of every CHECK_SIZES level count,
    single and a stacked pair, without and with ties and signed zeros, at
    rates drawn log-uniform on [0.1, 10] (beta 0 on every fourth), flow
    returns its out holding `ode._flow`'s bytes. The draws come from the
    standard library's generator, seeded SEED: numpy's random module
    would add some 5 MiB and 10 ms to every process that integrates."""
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


def load():
    """The C flow, or None when no compiler or no Python.h is found, the
    build fails, or the load-time check (`_agrees`) finds it differing
    from `ode._flow`."""
    extension = _cbuild.extension("flow", MODULE, SOURCE)
    if extension is None or not _agrees(extension.flow):
        return None
    return extension.flow
