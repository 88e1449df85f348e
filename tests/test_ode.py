"""Fluid ODE system: right-hand side, integration, comparison principle."""

import os
import re
import shutil
import subprocess
import sys
import warnings
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import accessors, fused_flags, fuses, needs_cc, route

import lobfluid
from lobfluid import _cext, cli, fixed_point_residual, ode
from lobfluid.model import TRANSITIONS, _taken
from lobfluid import (
    FluidState,
    HypothesisViolated,
    ModelParams,
    NegativeState,
    StepUnderflow,
    check_comparison,
    integrate,
    integrate_until_stationary,
    rhs,
    solve_recursive,
)


def params(n=1, lam_b=1.0, lam_s=1.0, alpha=1.0, beta=1.0, gamma=1.0):
    return ModelParams(n, lam_b, lam_s, alpha, beta, gamma)


def numpy_flow(z, p):
    """_flow at z, on the C flow's arguments: a fresh out, and the rates."""
    return ode._flow(0.0, z, np.empty(z.size), _cext.rates(p))


def random_params(rng, n_max=6):
    n = int(rng.integers(1, n_max + 1))
    draw = lambda: float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
    return ModelParams(n, draw(), draw(), draw(), draw(), draw())


def test_rhs_zero_state_is_pure_inflow():
    p = params(n=4, lam_b=2.0, lam_s=0.7)
    dx, dy = rhs(FluidState(np.zeros(4), np.zeros(4)), p)
    assert dx.tolist() == [2.0, 0.0, 0.0, 0.0]
    assert dy.tolist() == [0.0, 0.0, 0.0, 0.7]


def levelwise_rhs(x, y, p):
    """The fluid equations written out one level at a time."""
    n = p.n_levels
    bpa = p.beta + p.alpha
    dx = np.empty(n)
    dy = np.empty(n)
    for k in range(n):
        trade = p.gamma * min(y[k], x[k])  # y on a tie, as np.minimum(x, y)
        inflow_x = p.lambda_b if k == 0 else p.alpha * x[k - 1]
        inflow_y = p.lambda_s if k == n - 1 else p.alpha * y[k + 1]
        dx[k] = inflow_x - bpa * x[k] - trade
        dy[k] = inflow_y - bpa * y[k] - trade
    return dx, dy


# level counts of the flow tests, from one level to 400
FLOW_SIZES = [1, 2, 7, 32, 33, 52, 53, 60, 61, 400]


def flow_state(rng, n, ties):
    """Random x, y; with ties, some levels have x == y and some are signed
    zeros, so the min's tie rule shows in the bytes."""
    x = rng.uniform(0, 2, n)
    y = rng.uniform(0, 2, n)
    if ties:
        tie = rng.random(n) < 0.3
        y[tie] = x[tie]
        # x = -0.0, 0.0 and y = 0.0, -0.0 on levels 1, 2: the tie rule then
        # picks the sign of dx_2 and dy_1
        zero = rng.random(n) < 0.5
        zero[:2] = True
        signs = np.where(np.arange(n) % 2 == 0, -0.0, 0.0)
        x[zero] = signs[zero]
        y[zero] = -signs[zero]
    return x, y


@pytest.mark.parametrize("n", FLOW_SIZES)
def test_rhs_matches_levelwise_equations(n):
    rng = np.random.default_rng(36 + n)
    for i in range(20):
        p = replace(random_params(rng), n_levels=n)
        x, y = flow_state(rng, n, ties=i % 2 == 1)
        dx, dy = rhs(FluidState(x, y), p)
        want_x, want_y = levelwise_rhs(x, y, p)
        # same operations in the same order, so the results agree exactly
        assert dx.tobytes() == want_x.tobytes()
        assert dy.tobytes() == want_y.tobytes()
        # the stationarity defect is the same equations' sup-norm
        assert fixed_point_residual(x, y, p) == max(np.abs(want_x).max(),
                                                    np.abs(want_y).max())


def table_drift(x, y, p):
    """The chain's drift read off `model.TRANSITIONS` on the fluid state:
    the sum over rows and levels of rate * increment, each rate its field
    times its count of (x_k, y_k), the smaller of the sides it takes
    from, or 1 for an arrival (the rate per unit of tau, in which L
    cancels). Returns (drift, scale), each of shape (level, x/y), scale
    being the sum of |rate| that meets each component."""
    n = p.n_levels
    drift = np.zeros((n, 2))
    scale = np.zeros((n, 2))
    for field, levels, increments in TRANSITIONS.values():
        taken = _taken(increments, (x, y))
        for k in levels(n):
            count = min(side[k] for side in taken) if taken else 1.0
            rate = getattr(p, field) * count
            for side, offset, sign in increments:
                drift[k + offset, side] += sign * rate
                scale[k + offset, side] += abs(rate)
    return drift, scale


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_flow_is_the_drift_of_the_transition_table(n):
    # the fluid equations are the chain's drift, rescaled (Kurtz 1971): the
    # table's sum of rate * increment equals _flow on random states, exact
    # ties and signed zeros included, and at beta = 0; the float operations
    # come in another order, so to 1e-14 of the terms' absolute sum
    rng = np.random.default_rng(2100 + n)
    for i in range(40):
        p = replace(random_params(rng), n_levels=n)
        if i % 4 == 0:
            p = replace(p, beta=0.0)
        x, y = flow_state(rng, n, ties=i % 2 == 1)
        drift, scale = table_drift(x, y, p)
        got = numpy_flow(ode._pack(x, y), p).reshape(n, 2)
        assert (np.abs(got - drift) <= 1e-14 * scale).all(), (p, x, y)


def lsoda_flow(form):
    """The right-hand side _solve hands LSODA, as f(z, p) -> array: _flow,
    where the C flow does not load, or the C flow, skipping the test where
    the C flow does not load; both with their out and rates arguments."""
    flow = ode._flow if form == "python" else ode._c_flow()
    if form == "c" and flow is ode._flow:
        pytest.skip("the C flow did not load (no compiler cc or no Python.h)")

    def evaluate(z, p):
        out = np.empty(z.size)
        assert flow(0.0, z, out, _cext.rates(p)) is out
        return out
    return evaluate


# (form, n): _flow at every size, with ids of n alone, and the C flow,
# which serves every shape, with ids c-<n>
LSODA_FORMS = ([pytest.param("python", n, id=str(n)) for n in FLOW_SIZES]
               + [pytest.param("c", n, id=f"c-{n}") for n in FLOW_SIZES])


@pytest.mark.parametrize("form, n", LSODA_FORMS)
def test_compiled_flow_matches_levelwise_equations(form, n):
    # the forms _solve hands LSODA: the C flow at every size, and _flow
    # where the C one does not load; both give the levelwise bytes
    rng = np.random.default_rng(40 + n)
    flow = lsoda_flow(form)
    for i in range(20):
        p = replace(random_params(rng), n_levels=n)
        if i % 4 == 0:
            p = replace(p, beta=0.0)
        x, y = flow_state(rng, n, ties=i % 2 == 1)
        z = ode._pack(x, y)
        d = flow(z, p)
        assert d.tobytes() == numpy_flow(z, p).tobytes()
        d = d.reshape(-1, 2)
        want_x, want_y = levelwise_rhs(x, y, p)
        assert d[:, 0].tobytes() == want_x.tobytes()
        assert d[:, 1].tobytes() == want_y.tobytes()


@pytest.mark.parametrize("form, n", LSODA_FORMS)
def test_stacked_flow_equals_separate_evaluations(form, n):
    # the comparison check integrates two states through the same
    # equations, on either form
    rng = np.random.default_rng(37 + n)
    p = ModelParams(n, 1.3, 0.7, 0.9, 0.4, 2.5)
    a = ode._pack(*flow_state(rng, n, ties=True))
    b = ode._pack(*flow_state(rng, n, ties=False))
    flow = lsoda_flow(form)
    stacked = flow(np.concatenate([a, b]), p)
    assert stacked.tobytes() == np.concatenate([flow(a, p),
                                                flow(b, p)]).tobytes()
    assert stacked.tobytes() == numpy_flow(np.concatenate([a, b]),
                                           p).tobytes()


def public_solve(z0, p, taus, tau_max, tol, func=ode._flow, args=None):
    """ode._solve's integration through scipy's public odeint wrapper, by
    default on _flow, with args (out, rates)."""
    from scipy.integrate import odeint

    band = min(2, z0.size - 1)
    args = args or (np.empty(z0.size), _cext.rates(p))
    states, info = odeint(func, z0, taus, args=args, tfirst=True,
                          ml=band, mu=band, rtol=tol, atol=tol,
                          tcrit=[tau_max], mxstep=ode.MAX_STEPS,
                          full_output=True)
    return states, int(info["nfe"][-1])


def solve_cases():
    """(z0, params, taus, tau_max, tol) over the shapes _solve is called on:
    one level (band clamped to 1), single states up to N = 10 on the
    endpoint default and on explicit grids, stacked comparison pairs, stiff
    draws, and N = 1000."""
    rng = np.random.default_rng(38)
    for i in range(24):
        p = random_params(rng, n_max=1 if i < 4 else 10)
        if i % 4 == 3:  # stiff: the BDF steps reach their top order, 5
            p = replace(p, gamma=100 * p.gamma)
        n = p.n_levels
        z0 = ode._pack(rng.uniform(0, 2, n), rng.uniform(0, 2, n))
        if i % 3 == 2:  # a comparison check's stacked pair
            z0 = np.concatenate([z0, ode._pack(rng.uniform(0, 2, n),
                                               rng.uniform(0, 2, n))])
        tau_max = float(rng.uniform(1, 60))
        taus = (np.array([0.0, tau_max]) if i % 2 == 0
                else np.linspace(0.0, tau_max * rng.uniform(0.5, 1), 31))
        tol = float(10.0 ** rng.uniform(-11, -6))
        yield z0, p, taus, tau_max, tol
    n = 1000  # from empty: a random start costs LSODA ~10^4 evaluations
    yield (np.zeros(2 * n), ModelParams(n, 1, 1, 1, 1, 1),
           np.array([0.0, 25.0, 50.0]), 50.0, ode.DEFAULT_TOL)


def test_solve_matches_public_odeint_bit_for_bit(monkeypatch):
    # _solve hands LSODA the C flow, or where it does not load _flow; the
    # public run on _flow takes the same steps to the same bits
    for c_flow in {ode._c_flow(), ode._flow}:
        monkeypatch.setattr(ode, "_c_flow", lambda c_flow=c_flow: c_flow)
        for z0, p, taus, tau_max, tol in solve_cases():
            z0_kept, taus_kept = z0.copy(), taus.copy()
            states, nfe = ode._solve(z0, p, taus, tau_max, tol)
            want, want_nfe = public_solve(z0, p, taus, tau_max, tol)
            assert states.tobytes() == want.tobytes(), p
            assert nfe == want_nfe, p
            # _solve passes copies: LSODA integrates in the array it gets
            assert z0.tobytes() == z0_kept.tobytes()
            assert taus.tobytes() == taus_kept.tobytes()


class RecordingOdepack:
    """Stands in for scipy's ODEPACK extension: `odeint` records its
    positional arguments and returns a successful, all-zero integration."""

    def __init__(self):
        self.calls = []

    def odeint(self, func, y0, t, *rest):
        self.calls.append((func, y0, t, *rest))
        return np.zeros((len(t), len(y0))), {"nfe": np.array([0])}, 2


def same_argument(a, b):
    """Equal values of the same type; arrays also of the same dtype and
    shape, and sequences element by element."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same_argument, a, b))
    return a is b or a == b


def test_solve_passes_lsoda_the_public_odeint_arguments(monkeypatch):
    # every argument, including those no result shows: LSODA reaches Adams
    # order 11 at most on this system, so an mxordn other than 12 would
    # leave every output bit as it is. The callable is the C flow, or
    # _flow where the C flow does not load, with args (out, rates): a
    # float64 array of the state's size, written on every call, and the
    # rates
    from scipy.integrate import _odepack_py

    private, public = RecordingOdepack(), RecordingOdepack()
    monkeypatch.setattr(ode, "_lsoda", lambda: private)
    monkeypatch.setattr(_odepack_py, "_odepack", public)
    for c_flow in {ode._c_flow(), ode._flow}:
        monkeypatch.setattr(ode, "_c_flow", lambda c_flow=c_flow: c_flow)
        for z0, p, taus, tau_max, tol in solve_cases():
            ode._solve(z0, p, taus, tau_max, tol)
            got = private.calls.pop()
            out, rates = got[3]
            assert (out.dtype, out.shape) == (np.float64, z0.shape)
            assert out.flags.c_contiguous
            assert same_argument(rates, _cext.rates(p))
            public_solve(z0, p, taus, tau_max, tol, func=c_flow, args=got[3])
            want = public.calls.pop()
            assert len(got) == len(want) == 21
            for i, (a, b) in enumerate(zip(got, want)):
                assert same_argument(a, b), (i, a, b)


@needs_cc
def test_the_c_flow_loads_where_a_compiler_is_found():
    # where cc and Python.h are found, _solve hands LSODA the C flow; the
    # tests that compare the forms then compare C with Python
    if _cext._python_flags() is None:
        pytest.skip("no Python.h for this interpreter")
    assert route("flow") == "c"


def test_without_python_h_the_flow_builds_nothing(tmp_path, monkeypatch,
                                                  fresh_extension_choice):
    # an interpreter without its headers: even with a compiler, nothing is
    # built and no cache directory is made, _solve runs _flow on the
    # public odeint bits, and a chain runs the Python engine
    import sysconfig

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(sysconfig, "get_path", lambda name: str(tmp_path))
    monkeypatch.setattr(shutil, "which", lambda name: "cc")
    monkeypatch.setattr(_cext, "_build", None)
    assert route("flow") == route("engine") == "python"
    assert not (tmp_path / "cache").exists()
    z0, p, taus, tau_max, tol = next(solve_cases())
    states, nfe = ode._solve(z0, p, taus, tau_max, tol)
    want, want_nfe = public_solve(z0, p, taus, tau_max, tol)
    assert (states.tobytes(), nfe) == (want.tobytes(), want_nfe)


@needs_cc
def test_the_extension_is_built_once_per_process(tmp_path, monkeypatch,
                                                 fresh_extension_choice):
    # where the cache cannot be written (XDG_CACHE_HOME names a file) the
    # library is built for the process alone; its flow, writer, solve,
    # classify and engine still share that one build
    if _cext._python_flags() is None:
        pytest.skip("no Python.h for this interpreter")
    blocked = tmp_path / "file"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    build, builds = _cext._build, []
    monkeypatch.setattr(_cext, "_build",
                        lambda *args: builds.append(args) or build(*args))
    assert {route(name) for name in accessors()} == {"c"}
    assert len(builds) == 1


# each equation's two subtractions regrouped into one
REGROUPED = [("x_in - bpa * x - trade", "x_in - (bpa * x + trade)"),
             ("y_in - bpa * y - trade", "y_in - (bpa * y + trade)")]


@needs_cc
@pytest.mark.parametrize("case", ["regrouped", "fused"])
def test_a_flow_library_that_differs_is_refused(tmp_path, monkeypatch,
                                                fresh_extension_choice, case):
    # each library builds, loads and runs, but its flow's bits are not
    # _flow's, and _solve then runs _flow, on the public odeint bits. The
    # regrouped library is refused by the flow's load-time check, while
    # its writer passes its own check and still loads; the library whose
    # build fuses multiply-adds is refused whole, by its canary, before
    # the flow's check runs, and its writer with it
    if _cext._python_flags() is None:
        pytest.skip("no Python.h for this interpreter")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if case == "regrouped":
        source = _cext.SOURCE
        for statement, replacement in REGROUPED:
            assert source.count(statement) == 1
            source = source.replace(statement, replacement)
        monkeypatch.setattr(_cext, "SOURCE", source)
    else:
        if not fuses(tmp_path, fused_flags()):
            pytest.skip("cc does not fuse a multiply-add on this machine")
        monkeypatch.setattr(_cext, "FLAGS", fused_flags())
    assert route("flow") == "python"
    if case == "regrouped":
        assert route("states") == "c"
        # it was built and loaded, and refused by the check
        flow = _cext._extension().flow
        z, out = np.linspace(0.1, 2.0, 8), np.empty(8)
        assert flow(0.0, z, out, _cext.rates(params(n=4))) is out
    else:
        assert _cext._extension() is None
        assert route("states") == "python"
    for z0, p, taus, tau_max, tol in solve_cases():
        states, nfe = ode._solve(z0, p, taus, tau_max, tol)
        want, want_nfe = public_solve(z0, p, taus, tau_max, tol)
        assert states.tobytes() == want.tobytes(), p
        assert nfe == want_nfe, p


@needs_cc
def test_the_flow_c_compiles_without_warnings(build_extension):
    # the flow's C is part of the extension's one source; the module built
    # from it with warnings as errors gives _flow's bits
    flow = build_extension.flow
    p = params(n=3, lam_b=1.3, lam_s=0.7, alpha=0.9, beta=0.4, gamma=2.5)
    z = np.linspace(0.1, 2.0, 12)  # two stacked states
    got = flow(0.0, z, np.empty(12), _cext.rates(p))
    assert got.tobytes() == numpy_flow(z, p).tobytes()


def test_the_flow_c_source_is_pinned():
    # the flow's own part of the extension's C source, from its size check
    # to the solve's constants; the extension's whole source, which keys
    # its cached library, is pinned in test_cengine.py
    source = _cext.SOURCE
    flow = source[source.index("/* 2N, the size of one state"):
                  source.index("/* the constants of fixed_point._trials")]
    assert zlib.crc32(flow.encode()) == 0xa847d578


def flow_refusals() -> dict:
    """The C flow's refusals by case: (arguments, exception, message), on
    a state of two levels. A message of None is numpy's, the buffer
    exporter's, and is not pinned."""
    z, out, rates = (np.linspace(0.1, 1.0, 4), np.zeros(4),
                     _cext.rates(params(n=2)))
    read_only = out.copy()
    read_only.flags.writeable = False
    types = "flow takes float64 arrays"
    sizes = ("flow takes states of 2N values, an out of their size and the "
             "rates (N, lambda_b, lambda_s, alpha, beta, gamma)")

    def with_n(n):
        return (0.0, z, out, np.array([n, *rates[1:]]))

    return {
        "int64-z": ((0.0, z.astype(np.int64), out, rates), TypeError, types),
        "float32-z": ((0.0, z.astype(np.float32), out, rates), TypeError,
                      types),
        "int64-out": ((0.0, z, out.astype(np.int64), rates), TypeError,
                      types),
        "float32-rates": ((0.0, z, out, rates.astype(np.float32)),
                          TypeError, types),
        "strided-z": ((0.0, np.repeat(z, 2)[::2], out, rates), ValueError,
                      None),
        "read-only-out": ((0.0, z, read_only, rates), ValueError, None),
        "state-size": ((0.0, np.ones(6), np.empty(6), rates), ValueError,
                       sizes),
        "out-size": ((0.0, z, np.empty(6), rates), ValueError, sizes),
        "rates-size": ((0.0, z, out, rates[:5]), ValueError, sizes),
        "fractional-n": (with_n(1.5), ValueError, sizes),
        "zero-n": (with_n(0.0), ValueError, sizes),
        "n-above-size": (with_n(3.0), ValueError, sizes),
        "three-arguments": ((0.0, z, out), TypeError,
                            "flow takes (t, z, out, rates)"),
    }


FLOW_REFUSALS = flow_refusals()


@pytest.mark.parametrize("case", list(FLOW_REFUSALS))
def test_the_c_flow_refuses_other_arguments(case):
    flow = ode._c_flow()
    if flow is ode._flow:
        pytest.skip("the C flow did not load (no compiler cc or no Python.h)")
    args, exception, message = FLOW_REFUSALS[case]
    with pytest.raises(exception) as refused:
        flow(*args)
    if message is not None:
        assert str(refused.value) == message

def run_python(code):
    """Run code in a fresh interpreter on this source tree; returns stdout."""
    src = str(Path(lobfluid.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_ode_routes_leave_scipy_integrate_unloaded(tmp_path):
    # no scipy module at all: scipy.integrate's __init__ would load some 580
    # modules, and scipy's own __init__ (run by a lookup of any scipy
    # submodule) 10 more; the LSODA extension alone needs neither
    out = run_python(
        "import sys\n"
        "from lobfluid import cli\n"
        "model = ['--n', '2', '--lambda-b', '1', '--lambda-s', '1',\n"
        "         '--alpha', '1', '--beta', '1', '--gamma', '1']\n"
        f"out = {str(tmp_path)!r}\n"
        "assert cli.main(['integrate', *model, '--tau-max', '50',\n"
        "                 '--out-dir', out + '/integrate']) == 0\n"
        "assert cli.main(['converge', *model, '--levels', '10,20',\n"
        "                 '--tau-horizon', '1', '--replicas', '2',\n"
        "                 '--out-dir', out + '/converge']) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n"
        "print(sys.modules['lobfluid.ode']._lsoda().__name__)\n")
    assert out.splitlines()[-2:] == ["[]", ode.ODEPACK]
    assert (tmp_path / "integrate" / "solution.csv").exists()
    assert (tmp_path / "converge" / "convergence.csv").exists()


# one small integration by the loader (private) and by the public odeint
LSODA_SETUP = ("import hashlib, numpy as np\n"
               "from lobfluid import ModelParams, ode\n"
               "from lobfluid.model import rates\n"
               "p = ModelParams(3, 1.3, 0.7, 0.9, 0.4, 2.5)\n"
               "z0 = ode._pack(np.array([0.5, 0.0, 1.0]),\n"
               "               np.array([0.0, 2.0, 0.1]))\n"
               "taus = np.linspace(0.0, 30.0, 11)\n"
               "def public():\n"
               "    from scipy.integrate import odeint\n"
               "    s, info = odeint(ode._flow, z0, taus,\n"
               "                     args=(np.empty(z0.size), rates(p)),\n"
               "                     tfirst=True, ml=2, mu=2, rtol=1e-9,\n"
               "                     atol=1e-9, tcrit=[30.0],\n"
               "                     mxstep=ode.MAX_STEPS, full_output=True)\n"
               "    return s, int(info['nfe'][-1])\n"
               "def private():\n"
               "    return ode._solve(z0, p, taus, 30.0, 1e-9)\n"
               "def show(s, nfe):\n"
               "    print(hashlib.sha256(s.tobytes()).hexdigest(), nfe)\n")


def test_lsoda_loader_and_public_odeint_agree_in_either_import_order():
    loader_first = run_python(LSODA_SETUP + "show(*private())\n"
                                            "show(*public())\n"
                                            "show(*private())\n")
    public_first = run_python(
        LSODA_SETUP + "show(*public())\n"
                      "show(*private())\n")
    lines = loader_first.splitlines() + public_first.splitlines()
    assert len(lines) == 5 and len(set(lines)) == 1, lines


def test_lsoda_loader_after_the_scipy_package_alone():
    # with the scipy package already imported, the loader finds the
    # extension under the loaded package's directory and adds no module;
    # the C flow, whose first load adds the package's own _cext, is
    # loaded before the count
    out = run_python(
        "import sys, scipy\n" + LSODA_SETUP
        + "ode._c_flow()\n"
          "before = set(sys.modules)\n"
          "show(*private())\n"
          "print(sorted(set(sys.modules) - before))\n"
          "print(ode._lsoda().__file__.startswith(scipy.__path__[0]))\n"
          "show(*public())\n")
    lines = out.splitlines()
    assert lines[1:3] == ["[]", "True"], lines
    assert len(lines) == 4 and lines[0] == lines[3], lines


def test_lsoda_loader_without_scipy_names_it(monkeypatch):
    import importlib.util

    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ModuleNotFoundError, match="'scipy'") as failure:
        ode._lsoda.__wrapped__()  # the uncached loader
    assert failure.value.name == "scipy"


def test_failed_integration_raises_step_underflow(monkeypatch, tmp_path,
                                                  capsys):
    monkeypatch.setattr(ode, "MAX_STEPS", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ODEintWarning may leak
        with pytest.raises(StepUnderflow, match="Excess work done"):
            integrate(np.zeros(2), np.zeros(2), params(n=2), 40.0)
        code = cli.main(["integrate", "--n", "2", "--lambda-b", "1",
                         "--lambda-s", "1", "--alpha", "1", "--beta", "1",
                         "--gamma", "1", "--tau-max", "40",
                         "--out-dir", str(tmp_path)])
    assert code == 3
    assert "Excess work done" in capsys.readouterr().err


def test_nonfinite_lsoda_output_raises_step_underflow(tmp_path, capsys):
    # over a span of 1e-200 LSODA's first step underflows and it returns
    # NaN states with a success code: integrate wrote rows of nan,
    # check_comparison reported a violation of NaN, and
    # integrate_until_stationary blamed the state it had produced
    p = params(n=2)
    lo = FluidState(np.zeros(2), np.ones(2))
    hi = FluidState(np.ones(2), np.zeros(2))
    message = "non-finite state"
    with pytest.raises(StepUnderflow, match=message):
        integrate(np.zeros(2), np.zeros(2), p, 1e-200)
    with pytest.raises(StepUnderflow, match=message):
        check_comparison(lo, hi, p, 1e-200)
    with pytest.raises(StepUnderflow, match=message):
        integrate_until_stationary(p, np.zeros(2), np.zeros(2), tau_max=1e-200)
    code = cli.main(["integrate", "--n", "2", "--lambda-b", "1",
                     "--lambda-s", "1", "--alpha", "1", "--beta", "1",
                     "--gamma", "1", "--tau-max", "1e-200",
                     "--out-dir", str(tmp_path)])
    assert code == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


def test_single_level_integrate_and_comparison():
    # one level is a 2-component system: the Jacobian band must shrink to 1
    p = params(gamma=3.0)
    sol = integrate(np.array([0.5]), np.array([0.0]), p, 40.0)
    assert sol.taus.tolist() == [0.0, 40.0]
    assert sol.x.shape == sol.y.shape == (2, 1)
    fp = solve_recursive(p)
    assert abs(sol.x[-1, 0] - fp.x_star[0]) < 1e-7
    assert abs(sol.y[-1, 0] - fp.y_star[0]) < 1e-7
    lo = FluidState(np.array([0.0]), np.array([2.0]))
    hi = FluidState(np.array([2.0]), np.array([0.0]))
    report = check_comparison(lo, hi, p, 20.0)
    assert report.ok and report.x_ok.shape == report.y_ok.shape == (1,)


def test_large_n_integration_cost_is_banded():
    # a dense finite-difference Jacobian needs 2N evaluations per refresh
    # (about 6300 here); the banded one needs five
    n = 1000
    sol = integrate(np.zeros(n), np.zeros(n), ModelParams(n, 1, 1, 1, 1, 1),
                    50.0, grid=np.array([0.0, 50.0]))
    assert sol.n_rhs_evals < 2000
    assert sol.x.shape == (2, n)


def test_import_and_solve_do_not_load_scipy():
    # and, with the C flow's library cached, one integrate loads no scipy
    # package module, no simulator and no subprocess: the C flow's load
    # path, the rendering of the extension's engine included, imports none
    # of them. `import lobfluid` loads lobfluid.simulate,
    # so the child drops it first, and any import of it would load it anew
    # builds the library, where it can
    loaded = ode._c_flow() is not ode._flow
    out = run_python(
        "import sys, numpy as np, lobfluid, lobfluid.cli\n"
        "lobfluid.solve_recursive(lobfluid.ModelParams(2, 1, 1, 1, 1, 1))\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        "assert 'concurrent.futures.process' not in sys.modules, "
        "'the process pool was imported'\n"
        "del sys.modules['lobfluid.simulate']\n"
        "lobfluid.integrate(np.zeros(2), np.zeros(2),\n"
        "                   lobfluid.ModelParams(2, 1, 1, 1, 1, 1), 50.0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m in ('lobfluid.simulate', 'subprocess')))\n"
        "ode = sys.modules['lobfluid.ode']\n"
        "print(ode._c_flow() is not ode._flow)\n")
    assert out.splitlines() == ["[]", str(loaded)]


def test_rhs_vanishes_at_analytic_fixed_points():
    dx, dy = rhs(FluidState(np.array([1 / 3]), np.array([1 / 3])), params())
    assert abs(dx[0]) < 1e-15 and abs(dy[0]) < 1e-15
    p2 = params(n=2)
    dx, dy = rhs(FluidState(np.array([3 / 7, 1 / 7]), np.array([1 / 7, 3 / 7])),
                 p2)
    assert np.abs(dx).max() < 1e-15 and np.abs(dy).max() < 1e-15


def test_integrate_stays_at_fixed_point():
    tol = 1e-9
    for p in (params(n=2), params(n=3, lam_b=2.0, lam_s=0.5, gamma=3.0)):
        fp = solve_recursive(p)
        sol = integrate(fp.x_star, fp.y_star, p, 100.0, tol=tol,
                        grid=np.linspace(0, 100, 51))
        assert np.abs(sol.x - fp.x_star).max() < 10 * tol
        assert np.abs(sol.y - fp.y_star).max() < 10 * tol


def test_integrate_from_empty_converges_to_one_third():
    sol = integrate(np.zeros(1), np.zeros(1), params(), 50.0,
                    grid=np.array([0.0, 50.0]))
    assert abs(sol.x[-1, 0] - 1 / 3) < 1e-6
    assert abs(sol.y[-1, 0] - 1 / 3) < 1e-6


def test_integrate_zero_horizon_single_point():
    sol = integrate(np.array([0.2]), np.array([0.4]), params(), 0.0)
    assert sol.taus.tolist() == [0.0]
    assert sol.x.tolist() == [[0.2]] and sol.y.tolist() == [[0.4]]
    # the grid [0] asks for the initial state alone, whatever the span;
    # LSODA, given one output time, reports no evaluation count
    sol = integrate(np.array([0.2]), np.array([0.4]), params(), 5.0,
                    grid=np.array([0.0]))
    assert sol.taus.tolist() == [0.0] and sol.n_rhs_evals == 0
    assert sol.x.tolist() == [[0.2]] and sol.y.tolist() == [[0.4]]


def test_integrate_rejects_negative_initial_data():
    with pytest.raises(ValueError):
        integrate(np.array([-0.1]), np.array([0.0]), params(), 1.0)


def test_integrate_rejects_grid_outside_span():
    for grid in ([0.5, 1.0], [0.0, 2.0], [0.0, 0.5, 0.5, 1.0],
                 [0.0, np.nan, 1.0], [0.0, np.nan], []):
        with pytest.raises(ValueError, match="grid must increase strictly"):
            integrate(np.zeros(1), np.zeros(1), params(), 1.0,
                      grid=np.array(grid))
    # a zero span takes no grid past 0 either; before, it ignored the grid
    with pytest.raises(ValueError, match="grid must increase strictly"):
        integrate(np.zeros(1), np.zeros(1), params(), 0.0,
                  grid=np.array([0.0, 1.0]))
    sol = integrate(np.zeros(1), np.ones(1), params(), 0.0, grid=np.zeros(1))
    assert sol.taus.tolist() == [0.0] and sol.y.tolist() == [[1.0]]


@pytest.mark.parametrize("tau_max", [np.nan, np.inf, -np.inf])
def test_nonfinite_tau_max_is_rejected(tau_max):
    # LSODA takes a NaN output time and steps on without end
    p = params(n=2)
    state = FluidState(np.zeros(2), np.ones(2))
    message = f"tau_max must be finite, got {tau_max}"
    with pytest.raises(ValueError, match=message):
        integrate(state.x, state.y, p, tau_max)
    with pytest.raises(ValueError, match=message):
        integrate(state.x, state.y, p, tau_max, grid=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match=message):
        check_comparison(state, state, p, tau_max)
    # the budget is checked before the first block: on a flow that never
    # settles (N = 20, beta = 0, gamma = 10 from x = 5) the block loop had
    # no end at NaN or inf; this flow settles, so the old loop returned
    with pytest.raises(ValueError, match=message):
        integrate_until_stationary(p, state.x, state.y, tau_max=tau_max)


def test_negative_tau_max_is_rejected():
    # check_comparison integrated backwards and could report a violation;
    # integrate_until_stationary returned converged=False at tau 0
    p = params(n=2)
    lo = FluidState(np.zeros(2), np.ones(2))
    hi = FluidState(np.ones(2), np.zeros(2))
    message = "tau_max must be >= 0, got -1.0"
    with pytest.raises(ValueError, match=message):
        check_comparison(lo, hi, p, -1.0)
    with pytest.raises(ValueError, match=message):
        integrate_until_stationary(p, np.zeros(2), np.zeros(2), tau_max=-1.0)
    with pytest.raises(ValueError, match=message):
        integrate(np.zeros(2), np.zeros(2), p, -1.0)
    # a zero span is no violation and no convergence
    assert check_comparison(lo, hi, p, 0.0).ok
    assert integrate_until_stationary(p, np.zeros(2), np.zeros(2),
                                      tau_max=0.0)[1:] == (False, 0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
def test_comparison_rejects_a_tol_it_cannot_use(tol):
    # a NaN tol reported a violation; tol <= 0 reached LSODA as illegal
    # input and surfaced as a StepUnderflow
    p = params(n=2)
    lo = FluidState(np.zeros(2), np.ones(2))
    hi = FluidState(np.ones(2), np.zeros(2))
    message = f"tol must be finite and > 0, got {tol}"
    with pytest.raises(ValueError, match=message):
        check_comparison(lo, hi, p, 10.0, tol=tol)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_states_of_another_level_count_are_rejected(n):
    # a state of n levels against params of 2 ended in an IndexError inside
    # the right-hand side, or at n = 4 was read as two stacked states
    p = params(n=2)
    wrong = FluidState(np.zeros(n), np.ones(n))
    right = FluidState(np.zeros(2), np.ones(2))

    def message(name):
        return re.escape(f"{name} must be 2 finite, nonnegative values, "
                         f"got {[0.0] * n}")
    with pytest.raises(ValueError, match=message("state.x")):
        rhs(wrong, p)
    with pytest.raises(ValueError, match=message("pair_a.x")):
        check_comparison(wrong, right, p, 1.0)
    with pytest.raises(ValueError, match=message("pair_b.x")):
        check_comparison(right, wrong, p, 1.0)
    with pytest.raises(ValueError, match=message("x0")):
        integrate_until_stationary(p, wrong.x, wrong.y)


@pytest.mark.parametrize("x0, y0", [(np.zeros(3), np.zeros(2)),
                                    (np.zeros(2), np.zeros(3)),
                                    (np.zeros((2, 2)), np.zeros((2, 2)))])
def test_integrate_rejects_initial_data_of_another_dimension(x0, y0):
    # this read "initial data dimension does not match n_levels", naming
    # neither side; the first side of another shape is named
    name = "x0" if x0.shape != (2,) else "y0"
    message = f"{name} must be 2 finite, nonnegative values, got "
    for run in (lambda: integrate(x0, y0, params(n=2), 1.0),
                lambda: integrate_until_stationary(params(n=2), x0, y0)):
        with pytest.raises(ValueError, match=message):
            run()


def test_integrate_clamps_round_off_and_raises_on_a_negative_state(
        monkeypatch):
    # a component below -100 * tol is a bug, not round-off to clamp away
    p = params(n=1)

    def solve(low):
        def fake(z0, params, taus, tau_max, tol):
            return np.array([[0.0, 0.0], [low, 0.5]]), 7
        monkeypatch.setattr(ode, "_solve", fake)
        return integrate(np.zeros(1), np.zeros(1), p, 1.0, tol=1e-9)

    sol = solve(-1e-7)
    assert sol.x.tolist() == [[0.0], [0.0]] and sol.y.tolist() == [[0.0], [0.5]]
    with pytest.raises(NegativeState, match="solution component reached "
                                            "-1.000e-06"):
        solve(-1e-6)


def test_nonfinite_states_are_rejected():
    # a NaN level made check_comparison report ok=False with a violation
    # of NaN, and rhs return NaN. A fluid state is now refused when built,
    # and each route checks its state again, since the arrays stay writable
    p = params(n=2)
    lo = FluidState(np.zeros(2), np.ones(2))
    hi = FluidState(np.ones(2), np.zeros(2))
    for side, values in (("x", [np.nan, 0.0]), ("y", [1.0, np.inf])):
        message = f"{side} must be 2 finite, nonnegative values"
        with pytest.raises(ValueError, match=f"^{message}"):
            FluidState(**{"x": np.zeros(2), "y": np.ones(2),
                          side: np.array(values)})
        bad = FluidState(np.zeros(2), np.ones(2))
        getattr(bad, side)[:] = values
        with pytest.raises(ValueError, match=f"state.{message}"):
            rhs(bad, p)
        with pytest.raises(ValueError, match=f"pair_a.{message}"):
            check_comparison(bad, hi, p, 1.0)
        with pytest.raises(ValueError, match=f"pair_b.{message}"):
            check_comparison(lo, bad, p, 1.0)
        with pytest.raises(ValueError, match=f"{side}0 must be 2 finite"):
            integrate_until_stationary(p, bad.x, bad.y)


def test_comparison_clamps_round_off_and_raises_on_a_negative_state(
        monkeypatch):
    # the comparison skipped integrate's clamp, so a component below
    # -100 times the integration tolerance passed unnoticed
    p = params(n=1)
    lo = FluidState(np.zeros(1), np.ones(1))
    hi = FluidState(np.ones(1), np.zeros(1))

    def compare(low):
        def fake(z0, params, taus, tau_max, tol):
            states = np.tile(z0, (taus.size, 1))
            states[-1, 3] = low  # pair_b's y at the last time
            return states, 7
        monkeypatch.setattr(ode, "_solve", fake)
        # tol 1e-8 integrates at 1e-10, whose clamp floor is -1e-8
        return check_comparison(lo, hi, p, 1.0, tol=1e-8)

    assert compare(-1e-9).ok
    with pytest.raises(NegativeState, match="solution component reached "
                                            "-1.000e-07"):
        compare(-1e-7)


def test_uniform_grid_caps_its_point_count(monkeypatch):
    # a grid of more than GRID_MAX points is refused before it is
    # allocated, naming the caller's step; up to the cap it is built,
    # with or without stop appended
    from lobfluid import ode, uniform_grid

    monkeypatch.setattr(ode, "GRID_MAX", 10)
    assert len(uniform_grid(9.0, 1.0)) == 10  # 0..9
    assert len(uniform_grid(8.5, 1.0)) == 10  # 0..8, then 8.5
    for stop, step in ((10.0, 1.0), (9.5, 1.0), (1.0, 5e-324), (1e300, 1e-300)):
        with pytest.raises(ValueError) as raised:
            uniform_grid(stop, step, names=("T", "sample_dt"))
        assert str(raised.value) == (
            f"sample_dt = {step} would make more than 10 grid points up to "
            f"T = {stop}")
    monkeypatch.undo()
    assert ode.GRID_MAX == 10**7


def test_uniform_grid_endpoint_never_overshoots():
    from lobfluid import uniform_grid

    for stop in (7.0, 6.6, 1.0, 0.123, 200.0):
        grid = uniform_grid(stop, stop / 100)
        assert grid[0] == 0.0
        assert grid[-1] <= stop
        assert len(grid) == 101
        # the clamped grid must be accepted by the integrator
        integrate(np.zeros(1), np.zeros(1), params(), stop, grid=grid)
    # stop off the step's multiples: the grid still ends at stop
    for stop, step, head in ((1.0, 0.3, [0.0, 0.3, 0.6, 3 * 0.3]),
                             (7.0, 2.0, [0.0, 2.0, 4.0, 6.0]),
                             (0.05, 0.1, [0.0]),
                             (0.25 + 1e-6, 0.05, [0.05 * k for k in range(6)])):
        grid = uniform_grid(stop, step)
        assert grid.tolist() == head + [stop]
        integrate(np.zeros(1), np.zeros(1), params(), stop, grid=grid)
    # a multiple within 1e-9 * step of stop ends the grid, as before
    assert uniform_grid(0.9, 0.3).tolist() == [0.0, 0.3, 0.6, 3 * 0.3]
    assert uniform_grid(1.0 + 1e-12, 0.5).tolist() == [0.0, 0.5, 1.0]
    # but 0 never ends the grid of a positive stop, however close to it
    for stop in (1e-12, 1e-9, 5e-324):
        assert uniform_grid(stop, 1.0).tolist() == [0.0, stop]
    sol = integrate(np.zeros(1), np.ones(1), params(), 1e-12,
                    grid=uniform_grid(1e-12, 1.0))
    assert sol.taus.tolist() == [0.0, 1e-12] and sol.x.shape == (2, 1)
    assert uniform_grid(0.0, 1.0).tolist() == [0.0]
    with pytest.raises(ValueError):
        uniform_grid(1.0, 0.0)
    for stop, step, name in ((np.inf, 0.1, "stop"), (np.nan, 0.1, "stop"),
                             (1.0, np.inf, "step"), (1.0, np.nan, "step")):
        with pytest.raises(ValueError, match=f"grid {name} must be finite"):
            uniform_grid(stop, step)
    # a caller's names replace the grid's own: each caller checked its stop
    # and step under its own names before the grid checked them again
    for stop, step, message in ((-1.0, 0.1, "T must be >= 0, got -1.0"),
                                (1.0, 0.0, "sample_dt must be finite and > 0, "
                                           "got 0.0")):
        with pytest.raises(ValueError) as raised:
            uniform_grid(stop, step, names=("T", "sample_dt"))
        assert str(raised.value) == message


def test_integrate_nonnegative_and_bounded():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_params(rng, n_max=5)
        n = p.n_levels
        x0 = rng.uniform(0, 3, n)
        y0 = rng.uniform(0, 3, n)
        sol = integrate(x0, y0, p, 20.0, grid=np.linspace(0, 20, 81))
        assert sol.x.min() >= 0 and sol.y.min() >= 0
        x_cap = max(x0.max(), p.lambda_b / (p.beta + p.alpha))
        y_cap = max(y0.max(), p.lambda_s / (p.beta + p.alpha))
        assert sol.x.max() <= x_cap + 1e-7
        assert sol.y.max() <= y_cap + 1e-7


def test_halved_tolerance_consistency():
    p = params(n=3, lam_b=2.0, gamma=0.5)
    x0 = np.array([1.0, 0.0, 0.5])
    y0 = np.array([0.0, 2.0, 0.1])
    grid = np.array([0.0, 10.0])
    tol = 1e-9
    a = integrate(x0, y0, p, 10.0, tol=tol, grid=grid)
    b = integrate(x0, y0, p, 10.0, tol=tol / 2, grid=grid)
    gap = max(np.abs(a.x[-1] - b.x[-1]).max(), np.abs(a.y[-1] - b.y[-1]).max())
    scale = 1.0 + max(a.x[-1].max(), a.y[-1].max())
    assert gap < 10 * tol * scale


def test_integrate_until_stationary_reaches_fixed_point():
    p = params(n=2)
    state, converged, tau = integrate_until_stationary(p, np.zeros(2),
                                                       np.zeros(2))
    fp = solve_recursive(p)
    assert converged
    assert np.abs(state.x - fp.x_star).max() < 1e-6
    assert np.abs(state.y - fp.y_star).max() < 1e-6


@pytest.mark.parametrize("p, x0, tau_max, blocks, converged", [
    # rates 1 from empty settle inside one block cut to 10
    (params(n=2), 0.0, 10.0, [10.0], True),
    # slow moves and quits from a full book: still moving at tau 120
    (params(n=2, alpha=0.1, beta=0.1), 5.0, 120.0, [50.0, 50.0, 20.0], False),
])
def test_integrate_until_stationary_stays_inside_its_budget(p, x0, tau_max,
                                                            blocks, converged):
    # the last block ends at the budget; a whole last block reported
    # tau_used = 50 for a budget of 10
    state, done, tau_used = integrate_until_stationary(
        p, np.full(2, x0), np.zeros(2), tau_max=tau_max)
    assert (done, tau_used) == (converged, tau_max)
    want = FluidState(np.full(2, x0), np.zeros(2))
    for span in blocks:
        want = integrate(want.x, want.y, p, span).final
    assert state.x.tobytes() == want.x.tobytes()
    assert state.y.tobytes() == want.y.tobytes()


def test_long_horizon_flow_lands_on_fixed_point():
    # random nonnegative starts all relax to the solved stationary profile
    p = params(n=4)
    fp = solve_recursive(p)
    target = np.concatenate([fp.x_star, fp.y_star])
    rng = np.random.default_rng(35)
    for _ in range(10):
        sol = integrate(rng.uniform(0, 2, 4), rng.uniform(0, 2, 4), p, 200.0,
                        grid=np.array([0.0, 200.0]))
        endpoint = np.concatenate([sol.x[-1], sol.y[-1]])
        assert np.linalg.norm(endpoint - target) < 1e-6


def test_comparison_identical_pairs():
    p = params(n=3)
    point = FluidState(np.array([0.5, 0.2, 0.1]), np.array([0.1, 0.2, 0.5]))
    report = check_comparison(point, point, p, 10.0)
    assert report.ok
    assert report.max_violation <= 1e-12


def test_comparison_hypothesis_violation():
    p = params(n=2)
    hi = FluidState(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    lo = FluidState(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(HypothesisViolated):
        check_comparison(hi, lo, p, 1.0)


def test_comparison_randomized_ordered_pairs():
    rng = np.random.default_rng(32)
    for _ in range(25):
        p = random_params(rng)
        n = p.n_levels
        xa = rng.uniform(0, 2, n)
        ya = rng.uniform(0, 2, n)
        pair_a = FluidState(xa, ya + rng.uniform(0, 1.5, n))
        pair_b = FluidState(xa + rng.uniform(0, 1.5, n), ya)
        report = check_comparison(pair_a, pair_b, p, 20.0, tol=1e-8)
        assert report.ok, f"violation {report.max_violation:.3e} for {p}"


def extremal_bracket(p, x0, y0):
    """The enclosing initial pairs from the long-time convergence argument."""
    n = p.n_levels
    y_hi = max(p.lambda_s / (p.alpha + p.beta), y0.max())
    x_hi = max(p.lambda_b / (p.alpha + p.beta), x0.max())
    lower = FluidState(np.zeros(n), np.full(n, y_hi))
    upper = FluidState(np.full(n, x_hi), np.zeros(n))
    return lower, upper


def test_bracketing_pairs_enclose_middle_solutions():
    rng = np.random.default_rng(33)
    for _ in range(100):
        p = random_params(rng, n_max=5)
        n = p.n_levels
        x0 = rng.uniform(0, 2, n)
        y0 = rng.uniform(0, 2, n)
        middle = FluidState(x0, y0)
        lower, upper = extremal_bracket(p, x0, y0)
        assert check_comparison(lower, middle, p, 50.0, tol=1e-8).ok
        assert check_comparison(middle, upper, p, 50.0, tol=1e-8).ok


def test_monotone_flow_from_extremal_starts():
    # nonnegative drift in x and nonpositive in y at tau=0 propagates into
    # monotone trajectories (and mirrored), per the time-shift argument
    rng = np.random.default_rng(34)
    for _ in range(10):
        p = random_params(rng, n_max=4)
        n = p.n_levels
        lower, upper = extremal_bracket(p, np.zeros(n), np.zeros(n))
        for state, x_sign, y_sign in ((lower, 1, -1), (upper, -1, 1)):
            dx, dy = rhs(state, p)
            assert (x_sign * dx >= -1e-12).all()
            assert (y_sign * dy >= -1e-12).all()
            sol = integrate(state.x, state.y, p, 30.0,
                            grid=np.linspace(0, 30, 121))
            x_steps = np.diff(sol.x, axis=0) * x_sign
            y_steps = np.diff(sol.y, axis=0) * y_sign
            assert x_steps.min() > -1e-8
            assert y_steps.min() > -1e-8
