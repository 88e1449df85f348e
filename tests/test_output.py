"""CSV writers: every file's row format gives the reference bytes."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from lobfluid import (ModelParams, ScalingLevel, equilibrium_concentration,
                      output, overproduction_sweep, simulate, solve_recursive)
from lobfluid.ode import OdeSolution

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
