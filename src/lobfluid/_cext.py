"""The package's CPython extension module: the fluid right-hand side that
scipy's ODEPACK extension calls from inside LSODA (`flow`), and the state
CSV writer (`states`).

`ode._c_flow` imports this module at the first `ode._solve` of a process
and `output._c_write` at its first state CSV, so `import lobfluid` does
not parse it; it imports no module of the package beyond `ode`, `model`
and `_cbuild`, so an ODE run loads neither the simulator nor
`subprocess` when the library is cached. Each accessor loads the one
library and runs its own function's load-time check alone: a run that
writes no state CSV never runs the writer's check, and a function
refused by its check leaves the other in use.

`flow(t, z, out, rates)`: z holds any number of stacked level-major
states (x_1, y_1, x_2, y_2, ...) of 2N components each, out is a float64
array of z's size, and rates is `rates(params)`, the float64 array
(N, lambda_b, lambda_s, alpha, beta, gamma). It writes each state's
equations into out through the buffer protocol and returns out. Each
equation makes `ode._flow`'s operations in its order, (inflow - (beta +
alpha) * v) - gamma * min, and the min takes y on a tie, as numpy's
elementwise minimum does, so one function serves every N and the stacked
pair of a comparison check, with the numpy form's bits.

`states(write, taus, x, y)`: taus is a float64 vector of R values and x
and y are float64 matrices of R rows and N columns, read through the
buffer protocol with their strides, so views are not copied. Row i is
taus[i], x[i], y[i], comma-separated and ended by a newline, handed to
write as bytes objects of CHUNK (64 KiB) bytes, the last one shorter.
Each cell is formatted by `PyOS_double_to_string(v, 'g', 17, 0, NULL)`,
the call that `"%.17g" % v` makes, so the text is Python's by
construction (a C `printf` would write "-nan" where Python writes "nan").
A trajectory repeats few values, so the texts are cached in a
direct-mapped table of 2**TABLE_BITS entries keyed on the cell's 64-bit
pattern, not its value, so 0.0 and -0.0, and NaNs of either sign, each
keep their own text. The table is allocated once per call, so memory
does not grow with the rows or the distinct values; a pattern whose entry
another one took is formatted again.

Build and cache: `_cbuild.library`, with the interpreter's `Python.h`,
into `ext-<crc32 of the source>` plus the interpreter's extension suffix.
`load(name)` returns None, and the caller runs the function's one Python
twin, when no compiler `cc` or no `Python.h` is found, the build fails,
or the function's load-time check finds it differing from that twin.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import random

import numpy as np

from . import _cbuild
from .model import ModelParams
from .ode import _flow, _pack

MODULE = "lobfluid_ext"  # the extension's name; its init is PyInit_<name>
CHECK_SIZES = (1, 2, 7, 60)  # level counts of the flow check's states
SEED = 2012  # of the load-time checks' draws

# The extension module MODULE. flow checks its arguments, then runs each
# state's levels in order; the expressions are _flow's, operation for
# operation. The writer's table has 2**TABLE_BITS entries of 48 bytes. On
# the benchmark's 4,001 x 101 trajectory (7,358 distinct patterns; a
# shared 2-core Xeon, gcc 12.2, Python 3.11) the write took a median 13.3,
# 10.2, 9.7, 9.1, 9.2 and 9.6 ms at 2**10, 2**12 ... 2**16 entries (48 KiB
# to 3 MiB); 2**14 (768 KiB) is the fastest (CHANGES.md has the runs)
SOURCE = """\
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define TABLE_BITS 14
#define TEXT_MAX 24  /* the longest text, as of -4.9406564584124654e-324 */
#define CHUNK 65536
#define FLOW_TYPES "flow takes float64 arrays"
#define STATES_TYPES "states takes a float64 vector and two matrices"

/* a view of a float64 buffer got with flags, of ndim dimensions (of any
   where ndim is 0), or -1 with an exception set: message, a TypeError,
   where the buffer holds another type or has another dimension */
static int
doubles(PyObject *object, Py_buffer *view, int flags, int ndim,
        const char *message)
{
    if (PyObject_GetBuffer(object, view, flags | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != sizeof(double) || strcmp(view->format, "d") != 0
            || (ndim && view->ndim != ndim)) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_TypeError, message);
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
    {"flow", (PyCFunction) (void (*)(void)) flow, METH_FASTCALL,
     "flow(t, z, out, rates): the fluid equations of z, written into out"},
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
    row order), states writes the bytes of the per-row format
    `"%.17g,...\\n" % row`."""
    width = 1 + 2 * CHECK_LEVELS
    matrix = _cells(random.Random(SEED), CHECK_ROWS * width).reshape(
        CHECK_ROWS, width)
    taus, x, y = matrix[:, 0], matrix[:, 1::2], matrix[::-1, 2::2]
    line = ",".join(["%.17g"] * width) + "\n"
    want = "".join(line % (tau, *xi, *yi) for tau, xi, yi
                   in zip(taus.tolist(), x.tolist(), y.tolist()))
    chunks = []
    states(chunks.append, taus, x, y)
    return b"".join(chunks) == want.encode()


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


def load(name: str):
    """The extension's function name ("flow" or "states") where the library
    builds and loads and the function passes its own load-time check
    (`_flow_agrees` or `_states_agree`); else None."""
    extension = _cbuild.library("ext", SOURCE,
                                importlib.machinery.EXTENSION_SUFFIXES[0],
                                _module, _python_flags)
    if extension is None:
        return None
    function = getattr(extension, name)
    agrees = _flow_agrees if name == "flow" else _states_agree
    return function if agrees(function) else None
