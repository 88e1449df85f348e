"""CSV writers: every file's row format gives the reference bytes."""

import csv
import dataclasses
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import _clear_extension_choice, needs_cc

import lobfluid
from lobfluid import (ModelParams, ScalingLevel, _cext, cli,
                      equilibrium_concentration, fixed_point, integrate, ode,
                      output, overproduction_sweep, simulate, solve_recursive)
from lobfluid.ode import OdeSolution


def source_constant(name: str) -> int:
    """The value of a #define of the C writer's source."""
    return int(re.search(rf"^#define {name} (\d+)", _cext.SOURCE,
                         re.MULTILINE)[1])


CHUNK = source_constant("CHUNK")  # bytes per write call of the C writer
TABLE = 1 << source_constant("TABLE_BITS")  # entries of its text cache

# zero of both signs, the smallest subnormal, both sides of %g's switch to
# exponent form (exponent < -4 or >= the precision, 17), short decimals
# with long binary expansions, and the non-finite values
ADVERSARIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e-4,
               math.nextafter(1e-4, 0.0), 1e16, 1e17,
               math.nextafter(1e17, 0.0), 0.1, 1 / 3, -2 / 3, 1.0, 12.5,
               math.inf, -math.inf, math.nan]


def reference_csv(header, rows) -> bytes:
    """The per-value path: csv.writer with format(v, ".17g") for floats and
    str(v) for everything else."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(v), ".17g")
                         if isinstance(v, (float, np.floating)) else str(v)
                         for v in row])
    return buf.getvalue().encode()


def reference_bytes(taus, x, y) -> bytes:
    return reference_csv(output.state_header(x.shape[1]),
                         ([float(tau), *x[i], *y[i]]
                          for i, tau in enumerate(taus)))


def _trajectory(taus, x, y):
    p = ModelParams(x.shape[1], 1.0, 1.0, 1.0, 1.0, 1.0)
    zeros = np.zeros(x.shape[1])
    template = simulate(p, ScalingLevel(2), zeros, zeros, 0.0, 1.0, seed=1)
    return dataclasses.replace(template, taus=taus, x=x, y=y)


def _written(tmp_path, taus, x, y) -> list[bytes]:
    """Bytes of both state writers on (taus, x, y)."""
    traj_path = tmp_path / "trajectory.csv"
    sol_path = tmp_path / "solution.csv"
    output.write_trajectory_csv(traj_path, _trajectory(taus, x, y))
    output.write_solution_csv(sol_path, OdeSolution(taus, x, y, 0))
    return [traj_path.read_bytes(), sol_path.read_bytes()]


def _each_writer(monkeypatch):
    """Yields "c", where the C writer loads, then "python": the state CSVs
    are written by that writer until the next."""
    for name, states in [("c", output._c_write()), ("python", None)]:
        if name == "c" and states is None:
            continue
        monkeypatch.setattr(output, "_c_write", lambda states=states: states)
        yield name


def _cases():
    vals = np.array(ADVERSARIAL)
    rng = np.random.default_rng(7)
    # every adversarial value in every column, N = 1 and N = 3
    for n in (1, 3):
        yield f"adversarial-n{n}", np.array(
            [np.roll(vals, -k)[:1 + 2 * n] for k in range(len(vals))])
    # raw bit patterns: subnormals, huge exponents, NaN payloads
    bits = rng.integers(0, 1 << 63, size=(40, 7), dtype=np.int64)
    signs = rng.choice([-1.0, 1.0], (40, 7))
    yield "bit-patterns", bits.view(np.float64) * signs
    yield "uniform", rng.random((25, 11))
    # row counts on both sides of 64 and of 128, with values repeating
    # across rows and tau new on every row
    for name, rows in [("block-minus-1", 63), ("block", 64),
                       ("block-plus-1", 65), ("two-blocks-plus-1", 129)]:
        grid = rng.choice(vals, (rows, 7))
        grid[:, 0] = np.arange(rows) * 0.002
        yield name, grid
    # 64 rows that repeat few values, then 64 whose cells are mostly
    # distinct (as in an ODE solution) that still hold both zeros and both
    # NaNs, then one row: the C writer's table of texts mostly hits, then
    # mostly misses
    signed = [0.0, -0.0, math.nan, math.copysign(math.nan, -1.0)]
    grid = rng.choice(vals, (129, 7))
    grid[64:128] = rng.random((64, 7))
    grid[64:68, 3] = signed
    grid[:, 0] = np.arange(129) * 0.002
    yield "repeated-then-distinct", grid
    # 0.0, -0.0, nan and -nan, each repeated in the middle and the last
    # columns of eight rows: each keeps its own text only if the writer
    # tells values apart by their bits
    yield "signed-zeros-and-nans", np.array(
        [[0.5 * i, *np.roll(signed, i)] for i in range(8)])
    # a row's last value also in an earlier column, and values found only
    # in the last column or only before it: one pattern takes both the
    # "," and the "\n" separator
    yield "last-value-repeated", np.array([[0.25, 0.1, 0.25, 0.1, 0.25],
                                           [0.5, 0.25, 0.1, 0.5, 0.75]])
    # the C writer hands the file CHUNK bytes at a time: about 2.5 chunks
    # of 18-20 byte cells, so chunks end inside cells and rows
    rows = 5 * CHUNK // (2 * 7 * 19)
    yield "chunks", rng.random((rows, 7))
    # more distinct patterns than the C writer's table holds, written
    # once and then again after they were evicted by the others
    rows = TABLE // 11 + 200
    distinct = rng.random((rows, 11))
    yield "evicted-then-repeated", np.concatenate([distinct, distinct])


CASES = dict(_cases())


@pytest.mark.parametrize("case", list(CASES))
def test_state_writers_match_reference_bytes(tmp_path, monkeypatch, case):
    grid = CASES[case]
    n = (grid.shape[1] - 1) // 2
    taus, x, y = grid[:, 0].copy(), grid[:, 1:1 + n], grid[:, 1 + n:]
    want = reference_bytes(taus, x, y)
    for writer in _each_writer(monkeypatch):
        for got in _written(tmp_path, taus, x, y):
            assert got == want, writer


def test_state_writers_zero_rows_write_the_header(tmp_path, monkeypatch):
    taus, x, y = np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2))
    want = b"tau,x_1,x_2,y_1,y_2\n"
    assert reference_bytes(taus, x, y) == want
    for writer in _each_writer(monkeypatch):
        assert _written(tmp_path, taus, x, y) == [want, want], writer


def test_state_writers_write_strided_solution_views(tmp_path, monkeypatch):
    # an integrated solution's x and y are every other column of LSODA's
    # states, and one of them is also taken with its rows reversed
    p = ModelParams(4, 1.0, 2.0, 1.0, 1.0, 1.0)
    sol = integrate(np.zeros(4), np.zeros(4), p, 2.0,
                    grid=np.linspace(0.0, 2.0, 41))
    assert sol.x.strides[1] == sol.y.strides[1] == 2 * sol.x.itemsize
    for x, y in [(sol.x, sol.y), (sol.x, sol.y[::-1])]:
        want = reference_bytes(sol.taus, x, y)
        for writer in _each_writer(monkeypatch):
            path = tmp_path / "solution.csv"
            output.write_solution_csv(path, OdeSolution(sol.taus, x, y, 0))
            assert path.read_bytes() == want, writer


def c_writer():
    """The C writer, or a skip where it does not load."""
    states = output._c_write()
    if states is None:
        pytest.skip("the C writer cannot run here")
    return states


@needs_cc
def test_the_c_writer_hands_the_file_whole_chunks(tmp_path):
    states = c_writer()
    grid = CASES["chunks"]
    taus, x, y = grid[:, 0].copy(), grid[:, 1:4], grid[:, 4:]
    chunks = []
    assert states(chunks.append, taus, x, y) is None
    assert len(chunks) == 3
    assert [len(chunk) for chunk in chunks[:-1]] == [CHUNK, CHUNK]
    assert 0 < len(chunks[-1]) <= CHUNK
    want = reference_bytes(taus, x, y)
    assert b"".join(chunks) == want[want.index(b"\n") + 1:]


def states_refusals() -> dict:
    """The C writer's refusals by case: (arguments after write, exception,
    message), on three rows of two levels."""
    taus, x = np.zeros(3), np.zeros((3, 2))
    types = "states takes a float64 vector and two matrices"
    shapes = ("states takes R taus and x and y of R rows and one column "
              "count")
    return {
        "int-taus": ((np.zeros(3, dtype=int), x, x), TypeError, types),
        "float32-x": ((taus, x.astype(np.float32), x), TypeError, types),
        "vector-x": ((taus, np.zeros(3), x), TypeError, types),
        "vector-y": ((taus, x, np.zeros(3)), TypeError, types),
        "taus-rows": ((np.zeros(4), x, x), ValueError, shapes),
        "y-rows": ((taus, x, np.zeros((4, 2))), ValueError, shapes),
        "y-columns": ((taus, x, np.zeros((3, 3))), ValueError, shapes),
        "three-arguments": ((taus, x), TypeError,
                            "states takes (write, taus, x, y)"),
    }


STATES_REFUSALS = states_refusals()


@pytest.mark.parametrize("case", list(STATES_REFUSALS))
def test_the_c_writer_refuses_other_arguments(case):
    # and writes nothing
    states, chunks = c_writer(), []
    args, exception, message = STATES_REFUSALS[case]
    with pytest.raises(exception) as refused:
        states(chunks.append, *args)
    assert str(refused.value) == message
    assert chunks == []


def test_the_c_writer_passes_on_what_write_raises():
    failure = KeyError("full")

    def write(chunk):
        raise failure

    grid = CASES["uniform"]
    with pytest.raises(KeyError) as raised:
        c_writer()(write, grid[:, 0].copy(), grid[:, 1:6], grid[:, 6:])
    assert raised.value is failure


@pytest.mark.parametrize("repeated", [True, False],
                         ids=["repeated-values", "distinct-values"])
def test_state_writer_memory_does_not_grow_with_the_rows(tmp_path,
                                                         monkeypatch,
                                                         repeated):
    # a sampled trajectory, mostly zeros and the rest multiples of 1/300
    # (21 columns), or an ODE-like solution whose cells are all distinct
    # (5 columns); few columns keep the traced formatting short. The C
    # writer holds one table and one chunk, allocated with PyMem_* and so
    # traced, and its Python twin one row at a time, so ten times the rows
    # may not raise the peak allocation
    rng = np.random.default_rng(9)
    n = 10 if repeated else 2
    for writer in _each_writer(monkeypatch):
        peaks = _write_peaks(tmp_path, rng, n, repeated)
        assert peaks[1] < 1.5 * peaks[0], writer


def _write_peaks(tmp_path, rng, n, repeated) -> list[int]:
    """Peak traced allocations of two state CSV writes, of 2,000 and
    20,000 rows."""
    peaks = []
    for rows in (2_000, 20_000):
        if repeated:
            grid = rng.integers(1, 300, (rows, 1 + 2 * n)) / 300.0
            grid[rng.random(grid.shape) < 0.8] = 0.0
        else:
            grid = rng.random((rows, 1 + 2 * n))
        sol = OdeSolution(grid[:, 0].copy(), grid[:, 1:1 + n],
                          grid[:, 1 + n:], 0)
        tracemalloc.start()
        try:
            output.write_solution_csv(tmp_path / "solution.csv", sol)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_state_writers_round_trip_the_binary_values(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    x = rng.random((5, 4)) * 10.0 ** rng.integers(-320, 300, (5, 4))
    y = rng.random((5, 4))
    taus = np.arange(5) * 0.002
    for writer in _each_writer(monkeypatch):
        _written(tmp_path, taus, x, y)
        back = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                          skiprows=1)
        assert np.array_equal(back, np.column_stack([taus, x, y])), writer


# the other four writers, on records whose values cover ADVERSARIAL, small
# and large ints, and the label strings the studies write
INTS = [0, 1, 7, 1000, 10**6, 2**62]
LABELS = ["42:0:1", "0:3", "i", "ii", "iii"]


def _adversarial_rows():
    """One (int, label, float) row per ADVERSARIAL float."""
    return [(INTS[i % len(INTS)], LABELS[i % len(LABELS)], v)
            for i, v in enumerate(ADVERSARIAL)]


@pytest.mark.parametrize("gamma", [1.0, 1 / 3, 12.5])
def test_fixed_point_writer_matches_reference_bytes(tmp_path, gamma):
    n = len(ADVERSARIAL)
    x = np.array(ADVERSARIAL)
    y = np.roll(x, 5)
    fp = solve_recursive(ModelParams(n, 1.0, 1.0, 1.0, 1.0, gamma))
    fp = dataclasses.replace(fp, x_star=x, y_star=y)
    rows, cum = [], 0.0
    for k, m in enumerate(np.minimum(x, y)):
        cum += gamma * float(m)
        rows.append([k + 1, x[k], y[k], float(m), cum])
    path = tmp_path / "fixed_point.csv"
    output.write_fixed_point_csv(path, fp, gamma)
    assert path.read_bytes() == reference_csv(
        ["level", "x_star", "y_star", "min_xy", "cum_trade_volume"], rows)


def test_study_writers_match_reference_bytes(tmp_path):
    p = ModelParams(2, 1.0, 1.0, 1.0, 1.0, 1.0)
    rows = [(level, level % 5, label, d)
            for level, label, d in _adversarial_rows()]
    report = dataclasses.replace(
        equilibrium_concentration(p, [1], 1.0, 0, 1.0, 0), rows=rows)
    output.write_convergence_csv(tmp_path / "convergence.csv", report)
    output.write_equilibrium_csv(tmp_path / "equilibrium.csv", report)
    assert (tmp_path / "convergence.csv").read_bytes() == reference_csv(
        ["L", "replica", "seed", "sup_dist"], rows)
    assert (tmp_path / "equilibrium.csv").read_bytes() == reference_csv(
        ["L", "sample_idx", "dist"], [(r[0], r[1], r[3]) for r in rows])


def test_sweep_writer_matches_reference_bytes(tmp_path):
    p = ModelParams(2, 1.0, 1.0, 1.0, 1.0, 1.0)
    rows = [(v, ell, regime, ADVERSARIAL[i - 3], ADVERSARIAL[i - 7])
            for i, (ell, regime, v) in enumerate(_adversarial_rows())]
    report = dataclasses.replace(overproduction_sweep(p, [1.0]), rows=rows)
    path = tmp_path / "sweep.csv"
    output.write_sweep_csv(path, report)
    assert path.read_bytes() == reference_csv(
        ["lambda_s", "ell", "regime", "trade_volume", "residual"], rows)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_manifest_is_strict_json(tmp_path, value):
    # json.dump writes NaN and Infinity by default, which strict JSON
    # parsers reject; the manifest refuses them and writes nothing
    path = tmp_path / "manifest.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        output.write_manifest(path, {"x": [1.0, value]})
    assert not path.exists()
    output.write_manifest(path, {"x": np.array([1.0, 0.1])})
    assert path.read_text().endswith('"x": [\n    1.0,\n    0.1\n  ]\n}\n')


@needs_cc
def test_the_c_writer_loads_where_a_compiler_is_found():
    # where cc and Python.h are found, the state CSVs are written in C; the
    # tests that run both writers then compare C with Python
    if _cext._python_flags() is None:
        pytest.skip("no Python.h for this interpreter")
    assert output._c_write() is not None


def test_without_python_h_the_writer_builds_nothing(tmp_path, monkeypatch,
                                                    fresh_extension_choice):
    # an interpreter without its headers: even with a compiler, nothing is
    # built and no cache directory is made, the writer's Python twin
    # writes the reference bytes, and the README simulate, on the Python
    # engine and that writer, writes the bytes it writes where the
    # extension loads
    import sysconfig

    readme = ["simulate", "--n", "2", "--lambda-b", "1", "--lambda-s", "1",
              "--alpha", "1", "--beta", "1", "--gamma", "1", "--seed", "42",
              "--scale", "1000", "--tau-max", "5", "--sample-dt", "0.05"]
    assert cli.main([*readme, "--out-dir", str(tmp_path / "c")]) == 0
    _clear_extension_choice()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(sysconfig, "get_path", lambda name: str(tmp_path))
    monkeypatch.setattr(shutil, "which", lambda name: "cc")
    monkeypatch.setattr(_cext, "_build", None)
    assert output._c_write() is None
    grid = CASES["adversarial-n3"]
    taus, x, y = grid[:, 0].copy(), grid[:, 1:4], grid[:, 4:]
    want = reference_bytes(taus, x, y)
    assert _written(tmp_path, taus, x, y) == [want, want]
    simulate_module = sys.modules["lobfluid.simulate"]
    assert simulate_module._engine() is simulate_module._python_engine()
    assert cli.main([*readme, "--out-dir", str(tmp_path / "python")]) == 0
    for name in ("trajectory.csv", "manifest.json"):
        assert ((tmp_path / "python" / name).read_bytes()
                == (tmp_path / "c" / name).read_bytes()), name
    assert not (tmp_path / "cache").exists()


# each library builds, loads and runs, but writes one value as Python
# does not: (the source's statement, its replacement, the value, the text)
DIFFERING = {
    # glibc's printf writes the sign of a NaN, which Python drops
    "snprintf": ("    char *text = PyOS_double_to_string(v, 'g', 17, 0, "
                 "NULL);\n",
                 "    char *text = PyMem_Malloc(32);\n\n"
                 "    if (text != NULL)\n"
                 "        snprintf(text, 32, \"%.17g\", v);\n",
                 -math.nan, b"-nan\n"),
    "precision-16": ("'g', 17,", "'g', 16,", 0.1, b"0.1\n"),
}


@needs_cc
@pytest.mark.parametrize("case", list(DIFFERING))
def test_a_writer_library_that_differs_is_refused(tmp_path, monkeypatch,
                                                  fresh_extension_choice, case):
    # the writer's load-time check refuses it, and the state CSVs are then
    # written by its Python twin, with the reference bytes, while
    # the flow of that library passes its own check and still loads
    if _cext._python_flags() is None:
        pytest.skip("no Python.h for this interpreter")
    statement, replacement, value, text = DIFFERING[case]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert _cext.SOURCE.count(statement) == 1
    monkeypatch.setattr(_cext, "SOURCE",
                        _cext.SOURCE.replace(statement, replacement))
    agrees, checked = _cext._states_agree, []
    monkeypatch.setattr(_cext, "_states_agree",
                        lambda states: checked.append(states) or agrees(states))
    assert output._c_write() is None
    assert ode._c_flow() is not None
    # it was built and loaded, and refused by the check
    states, = checked
    chunks = []
    states(chunks.append, np.array([value]), np.zeros((1, 0)),
           np.zeros((1, 0)))
    assert chunks == [text] != [("%.17g\n" % value).encode()]
    grid = CASES["signed-zeros-and-nans"]
    taus, x, y = grid[:, 0].copy(), grid[:, 1:3], grid[:, 3:]
    want = reference_bytes(taus, x, y)
    assert _written(tmp_path, taus, x, y) == [want, want]


@needs_cc
def test_the_writers_check_reads_its_python_twin(monkeypatch,
                                                 fresh_extension_choice):
    # the writer's load-time check takes its oracle from the twin that
    # writes the state CSVs where the C writer cannot run: a twin that
    # writes 16 digits refuses the C writer, and only the C writer
    if _cext._python_flags() is None:
        pytest.skip("no Python.h for this interpreter")
    line = output._state_line
    monkeypatch.setattr(output, "_state_line",
                        lambda n: line(n).replace("%.17g", "%.16g"))
    assert output._c_write() is None
    assert ode._c_flow() is not None
    assert fixed_point._c_solve() is not None
    assert fixed_point._c_classify() is not None


@needs_cc
def test_the_writer_c_compiles_without_warnings(build_extension):
    # the writer's C is part of the extension's one source; the module
    # built from it with warnings as errors writes the reference bytes
    states = build_extension.states
    grid = CASES["adversarial-n3"]
    taus, x, y = grid[:, 0].copy(), grid[:, 1:4], grid[:, 4:]
    chunks = []
    states(chunks.append, taus, x, y)
    header = (",".join(output.state_header(3)) + "\n").encode()
    assert header + b"".join(chunks) == reference_bytes(taus, x, y)


def test_the_writer_c_source_is_pinned():
    # the writer's own part of the extension's C source, from its cache
    # entry to the module's method table; the extension's whole source,
    # which keys its cached library, is pinned in test_cengine.py
    source = _cext.SOURCE
    writer = source[source.index("/* a cached text"):
                    source.index("static PyMethodDef")]
    assert zlib.crc32(writer.encode()) == 0xb9b0f49d


def test_runs_without_a_state_csv_leave_the_c_writer_unloaded(tmp_path):
    # the README converge integrates the ODE, so its process loads the
    # extension for the flow (or tries to), but it writes no state CSV and
    # so never asks for the writer or runs the writer's load-time check;
    # a simulate run, which writes trajectory.csv, does
    src = str(Path(lobfluid.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    model = ("'--n', '2', '--lambda-b', '1', '--lambda-s', '1', '--alpha', "
             "'1', '--beta', '1', '--gamma', '1', '--seed', '42'")
    code = (
        "import contextlib, io, lobfluid.cli\n"
        "from lobfluid import ode, output\n"
        "def main(*args):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert lobfluid.cli.main([*args, " + model + "]) == 0\n"
        "    print(ode._c_flow.cache_info().currsize,\n"
        "          output._c_write.cache_info().currsize)\n"
        "main('converge', '--levels', '10,100,1000', '--tau-horizon', '5',\n"
        f"     '--replicas', '50', '--out-dir', {str(tmp_path / 'c')!r})\n"
        "main('simulate', '--scale', '10', '--tau-max', '1',\n"
        f"     '--sample-dt', '0.5', '--out-dir', {str(tmp_path / 's')!r})\n")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["1 0", "1 1"]
