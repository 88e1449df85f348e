"""CSV writers: the streamed state-matrix rows have the reference bytes."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from lobfluid import ModelParams, ScalingLevel, output, simulate
from lobfluid.ode import OdeSolution

# zero of both signs, the smallest subnormal, both sides of %g's switch to
# exponent form (exponent < -4 or >= the precision, 17), short decimals
# with long binary expansions, and the non-finite values
ADVERSARIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e-4,
               math.nextafter(1e-4, 0.0), 1e16, 1e17,
               math.nextafter(1e17, 0.0), 0.1, 1 / 3, -2 / 3, 1.0, 12.5,
               math.inf, -math.inf, math.nan]


def reference_bytes(taus, x, y) -> bytes:
    """The per-value path: csv.writer with format(v, ".17g")."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(output.state_header(x.shape[1]))
    for i, tau in enumerate(taus):
        writer.writerow([format(float(v), ".17g")
                         for v in [tau, *x[i], *y[i]]])
    return buf.getvalue().encode()


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
    output.write_solution_csv(sol_path, OdeSolution(taus, x, y, 1e-9, 1e-9, 0))
    return [traj_path.read_bytes(), sol_path.read_bytes()]


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


CASES = dict(_cases())


@pytest.mark.parametrize("case", list(CASES))
def test_state_writers_match_reference_bytes(tmp_path, case):
    grid = CASES[case]
    n = (grid.shape[1] - 1) // 2
    taus, x, y = grid[:, 0].copy(), grid[:, 1:1 + n], grid[:, 1 + n:]
    want = reference_bytes(taus, x, y)
    for got in _written(tmp_path, taus, x, y):
        assert got == want


def test_state_writers_zero_rows_write_the_header(tmp_path):
    taus, x, y = np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2))
    want = b"tau,x_1,x_2,y_1,y_2\n"
    assert reference_bytes(taus, x, y) == want
    assert _written(tmp_path, taus, x, y) == [want, want]


def test_state_writers_round_trip_the_binary_values(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.random((5, 4)) * 10.0 ** rng.integers(-320, 300, (5, 4))
    y = rng.random((5, 4))
    taus = np.arange(5) * 0.002
    _written(tmp_path, taus, x, y)
    back = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.array_equal(back, np.column_stack([taus, x, y]))
