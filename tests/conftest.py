"""Shared test helpers: the mark of the tests that need a C compiler, the
engine renderings on scripted draws, a C library cache of the session's
own, the extension's functions' accessors and twins, a fresh choice of
those functions, one build of the extension with warnings as errors per
session, and a build that fuses multiply-adds."""

import ctypes
import importlib
import shutil
import subprocess
from dataclasses import fields

import numpy as np
import pytest

from lobfluid import EventCounters, _cext, fixed_point, ode, output
from lobfluid.simulate import _Chain, _engine

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler cc on PATH")


@pytest.fixture(autouse=True, scope="session")
def private_library_cache(tmp_path_factory):
    """The C library's cache in a directory of the session's own, so the
    tests never write to the user's home; the command-line runs that tests
    start in subprocesses inherit it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


def accessors() -> dict:
    """Each of the extension's five functions by name: (its accessor, its
    Python twin). An accessor returns the extension's function where it
    loads and passes its check, else the twin."""
    simulate = importlib.import_module("lobfluid.simulate")
    return {"flow": (ode._c_flow, ode._flow),
            "states": (output._c_write, output._python_states),
            "solve": (fixed_point._c_solve, fixed_point._python_solve),
            "classify": (fixed_point._c_classify, fixed_point._classify),
            "engine": (simulate._engine, simulate._python_engine())}


def route(name: str) -> str:
    """"c" where the accessor of the extension's function name returns the
    extension's own function, "python" where it returns its twin."""
    accessor, twin = accessors()[name]
    function = accessor()
    if function is twin:
        return "python"
    assert function is getattr(_cext._extension(), name)
    return "c"


def _clear_extension_choice():
    for cached in (_cext._extension, ode._c_flow, output._c_write,
                   fixed_point._c_solve, fixed_point._c_classify, _engine):
        cached.cache_clear()


@pytest.fixture
def fresh_extension_choice():
    """Lets a test load the extension and its flow, writer, solve,
    classify and engine again, and the next test after it: clears the
    module's cache and the cache of each accessor."""
    _clear_extension_choice()
    yield
    _clear_extension_choice()


def run_chain(params, scale, init, t_end, sample_ts, rng, max_events):
    """One run of a `_Chain` set up for it, as `simulate` makes one:
    (x, y, n_events, final state, counters)."""
    chain = _Chain(params, scale, init, t_end, sample_ts, max_events)
    x, y, n_events = chain.run(rng)
    return x, y, n_events, chain.final(), chain.counters()


def engines() -> dict:
    """The engine's renderings by name: the Python one, and the C one
    where it loads."""
    module = importlib.import_module("lobfluid.simulate")
    python, default = module._python_engine(), module._engine()
    return {"python": python} | ({"c": default} if default is not python
                                 else {})


def assert_same_counters(got: EventCounters, want: EventCounters) -> None:
    for f in fields(EventCounters):
        assert np.array_equal(getattr(got, f.name),
                              getattr(want, f.name)), f.name


@pytest.fixture
def each_engine(monkeypatch):
    """Call it to iterate over the names of the engine's renderings, the
    Python one first, then the C one where it loads; on each step a chain
    runs that rendering."""
    module = importlib.import_module("lobfluid.simulate")
    renderings = engines()

    def each():
        for name, engine in renderings.items():
            monkeypatch.setattr(module, "_engine", lambda engine=engine: engine)
            yield name
    return each


class ScriptedUniforms:
    """Stands in for a numpy Generator: `random` serves the scripted
    uniforms in order, then 0.5 forever, one at a time or filling out."""

    def __init__(self, script):
        self.script = list(script)

    def random(self, out=None):
        if out is None:
            return self.script.pop(0) if self.script else 0.5
        head = self.script[:len(out)]
        out.fill(0.5)
        out[:len(head)] = head
        del self.script[:len(out)]
        return out


@pytest.fixture
def fire_once(each_engine):
    """Run each engine rendering from `state` through exactly one event,
    fired at time 0 with selection uniform `u`; all must end alike.
    Returns (final state, counters)."""
    def run(params, scale, state, u):
        outcomes = []
        for _ in each_engine():
            # holding uniform 0 fires at t = 0; the next one, 0.5, lands
            # past the horizon, and a one-event budget would catch a second
            _, _, n_events, final, counters = run_chain(
                params, scale, state, 1e-9, [], ScriptedUniforms([0.0, u]), 1)
            assert n_events == 1
            outcomes.append((final, counters))
        (final, counters), *others = outcomes
        for other, other_counters in others:
            assert (final.b == other.b).all() and (final.s == other.s).all()
            assert_same_counters(counters, other_counters)
        return final, counters
    return run


def fused_flags():
    """The build's flags with contraction on, for this machine's FMA."""
    return (*(flag.replace("off", "fast") for flag in _cext.FLAGS),
            "-march=native")


def fuses(tmp_path, flags) -> bool:
    """Whether cc with flags computes a * b + c in one rounding here:
    (1 + e)(1 - e) - 1 is -e**2 exactly, and 0 when the product rounds."""
    probe = tmp_path / "probe.c"
    probe.write_text("double f(double a, double b, double c)\n"
                     "{ return a * b + c; }\n")
    subprocess.run(["cc", *flags, "-o", str(tmp_path / "probe.so"),
                    str(probe)], check=True, capture_output=True)
    f = ctypes.CDLL(str(tmp_path / "probe.so")).f
    f.argtypes = [ctypes.c_double] * 3
    f.restype = ctypes.c_double
    e = 2.0 ** -30
    return f(1.0 + e, 1.0 - e, -1.0) != 0.0


@pytest.fixture(scope="session")
def build_extension(tmp_path_factory):
    """The extension module built from its source with warnings as errors,
    once per session and outside the library cache; skips where the
    interpreter has no Python.h."""
    flags = _cext._python_flags()
    if flags is None:
        pytest.skip("no Python.h for this interpreter")
    directory = tmp_path_factory.mktemp("warnings")
    source = directory / "ext.c"
    source.write_text(_cext.SOURCE)
    library = directory / "ext.so"
    built = subprocess.run(
        ["cc", *_cext.FLAGS, *flags, "-Wall", "-Wextra", "-Werror",
         "-o", str(library), str(source)],
        capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    return _cext._module(str(library))
