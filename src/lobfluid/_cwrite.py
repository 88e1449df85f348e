"""The state CSV writer in C: a CPython extension function that writes the
rows of a trajectory or an ODE solution, each cell `"%.17g" % v`.

`output._c_write` imports this module at the first state CSV of a
process, so `import lobfluid` does not parse it, and neither do the runs
that write no state CSV.

The function is `states(write, taus, x, y)`. taus is a float64 vector of
R values and x and y are float64 matrices of R rows and N columns, read
through the buffer protocol with their strides, so views are not copied.
Row i is taus[i], x[i], y[i], comma-separated and ended by a newline, and
the function hands the text to write as bytes objects of CHUNK (64 KiB)
bytes, the last one shorter. Each cell is formatted by
`PyOS_double_to_string(v, 'g', 17, 0, NULL)`, the call that `"%.17g" % v`
itself makes, so the text is Python's by construction (a C `printf`
would write "-nan" where Python writes "nan"). A trajectory repeats few
values, so the texts are cached in a direct-mapped table of
2**TABLE_BITS entries keyed on the cell's 64-bit pattern, not its value,
so 0.0 and -0.0, and NaNs of either sign, each keep their own text. The
table is allocated once per call, so memory does not grow with the rows
or the distinct values; a pattern whose entry another one took is
formatted again.

Build and cache: `_cbuild.extension`, with the interpreter's `Python.h`,
into `write-<crc32 of the source>`. `load` returns None, and `output`
applies the per-row format itself, a block of rows at a time, when no
compiler `cc` or no `Python.h` is found, the build fails, or the
load-time check (`_agrees`) finds the C writer's bytes differing from the
per-row format's.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import _cbuild

MODULE = "lobfluid_write"  # the extension's name; its init is PyInit_<name>
SEED = 2012  # of the load-time check's cells

# The extension module MODULE. The table has 2**TABLE_BITS entries of 48
# bytes. On the benchmark's 4,001 x 101 trajectory (7,358 distinct
# patterns; a shared 2-core Xeon, gcc 12.2, Python 3.11) the write took a
# median 13.3, 10.2, 9.7, 9.1, 9.2 and 9.6 ms at 2**10, 2**12 ... 2**16
# entries (48 KiB to 3 MiB); 2**14 (768 KiB) is the fastest (CHANGES.md
# has the runs)
SOURCE = """\
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define TABLE_BITS 14
#define TEXT_MAX 24  /* the longest text, as of -4.9406564584124654e-324 */
#define CHUNK 65536

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

/* a view of a float64 buffer of ndim dimensions, with its strides, or -1
   with an exception set */
static int
doubles(PyObject *object, Py_buffer *view, int ndim)
{
    if (PyObject_GetBuffer(object, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->itemsize != sizeof(double) || strcmp(view->format, "d") != 0
            || view->ndim != ndim) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_TypeError,
                        "states takes a float64 vector and two matrices");
        return -1;
    }
    return 0;
}

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
    if (doubles(args[1], &taus, 1) < 0)
        return NULL;
    if (doubles(args[2], &x, 2) == 0) {
        if (doubles(args[3], &y, 2) == 0) {
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
    {"states", (PyCFunction) (void (*)(void)) states, METH_FASTCALL,
     "states(write, taus, x, y): the rows taus[i], x[i], y[i] as CSV text, "
     "handed to write in chunks"},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "lobfluid_write", NULL, 0, methods,
    NULL, NULL, NULL, NULL
};

/* multi-phase initialisation, so that loading the file registers the
   module nowhere in sys.modules */
PyMODINIT_FUNC
PyInit_lobfluid_write(void)
{
    return PyModuleDef_Init(&module);
}
"""

# bit patterns of the load-time check beyond its random draws: both zeros,
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
    """count cells of the load-time check in random order: PATTERNS and
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


def _agrees(states) -> bool:
    """The load-time check: on CHECK_ROWS rows of CHECK_LEVELS levels whose
    cells are `_cells`, read as strided views of one matrix (taus its
    first column, x its odd columns, y its even ones in reverse row
    order), states writes the bytes of the per-row format
    `"%.17g,...\\n" % row`. The draws come from the standard library's
    generator, seeded SEED: numpy's random module would add some 5 MiB
    and 10 ms to every process that writes a state CSV."""
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


def load():
    """The C writer `states`, or None when no compiler or no Python.h is
    found, the build fails, or the load-time check (`_agrees`) finds its
    bytes differing from the per-row format's."""
    extension = _cbuild.extension("write", MODULE, SOURCE)
    if extension is None or not _agrees(extension.states):
        return None
    return extension.states
