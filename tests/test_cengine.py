"""The C engine, a function of the package's one extension: its build,
its cache, its refusals and the Python fallback's bytes."""

import importlib
import importlib.machinery
import os
import shutil
import subprocess
import sys
import time
import zlib

import numpy as np
import pytest
from conftest import (_clear_extension_choice, engines, fused_flags, fuses,
                      needs_cc)

from lobfluid import (DiscreteState, ModelParams, ScalingLevel, _cext,
                      fixed_point, ode, output)
from lobfluid.cli import main
from lobfluid.simulate import _Chain

simulate_module = importlib.import_module("lobfluid.simulate")
SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]

# the README's simulate, converge and equilibrium arguments, at N = 2
README_RUNS = {
    "simulate": ["--scale", "1000", "--tau-max", "5", "--sample-dt", "0.05"],
    "converge": ["--levels", "10,100,1000", "--tau-horizon", "5",
                 "--replicas", "50"],
    "equilibrium": ["--levels", "1000", "--burn-in", "10", "--n-samples",
                    "200", "--sample-gap", "0.25"],
}
MODEL = ["--n", "2", "--lambda-b", "1", "--lambda-s", "1", "--alpha", "1",
         "--beta", "1", "--gamma", "1", "--seed", "42"]

needs_python_h = pytest.mark.skipif(
    _cext._python_flags() is None,
    reason="no Python.h for this interpreter")


def _readme_outputs(out_dir) -> dict:
    outputs = {}
    for command, flags in README_RUNS.items():
        assert main([command, *flags, *MODEL,
                     "--out-dir", str(out_dir / command)]) == 0
        outputs |= {f"{command}/{path.name}": path.read_bytes()
                    for path in sorted((out_dir / command).iterdir())}
    return outputs


def _builds_without_python_h(monkeypatch):
    """Lets a test's build run where the interpreter has no Python.h; the
    tests that use it fail the build or never start it."""
    monkeypatch.setattr(_cext, "_python_flags", lambda: ())


@needs_cc
@needs_python_h
def test_the_c_engine_loads_where_a_compiler_is_found():
    # where cc and Python.h are found, the engine a chain runs is the C
    # one, the extension's function itself; the tests that compare
    # renderings then compare C with Python
    assert set(engines()) == {"python", "c"}
    assert _cext.load("engine") is _cext._extension().engine


@needs_cc
@needs_python_h
def test_the_fallback_writes_the_c_engine_bytes(tmp_path, monkeypatch,
                                                fresh_extension_choice):
    # with no compiler found and nothing cached, the Python engine runs,
    # and every CSV and manifest of the README runs keeps its bytes
    assert simulate_module._engine() is not simulate_module._python_engine()
    compiled = _readme_outputs(tmp_path / "c")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
    monkeypatch.setattr(shutil, "which", lambda name: None)
    _clear_extension_choice()
    assert simulate_module._engine() is simulate_module._python_engine()
    fallback = _readme_outputs(tmp_path / "python")
    assert not (tmp_path / "empty").exists()
    assert fallback.keys() == compiled.keys()
    assert len(compiled) == 6  # a CSV and a manifest per command
    for name in compiled:
        assert fallback[name] == compiled[name], name


@needs_cc
@needs_python_h
def test_a_cached_library_of_another_source_is_rebuilt(
        tmp_path, monkeypatch, fresh_extension_choice):
    # the cache file is named by the source's crc32 and the stored source
    # is compared byte for byte: a working library built from another
    # source under that name (as after a crc32 collision) is rebuilt, not
    # loaded, and so is a library that does not load. Each case has a
    # cache of its own, since a process that loaded a library from a path
    # gets that library back from the path
    source = _cext.SOURCE.encode()
    name = f"ext-{zlib.crc32(source):08x}"
    other = source + b"/* another source */\n"
    command = (shutil.which("cc"), *_cext.FLAGS, *_cext._python_flags())
    for case in ("other-source", "not-a-library"):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / case))
        stem = tmp_path / case / "lobfluid" / name
        stem.parent.mkdir(parents=True)
        stored = stem.with_name(name + ".c")
        library = stem.with_name(name + SUFFIX)
        if case == "other-source":
            assert _cext._build(command, other, str(stem)) is not None
            assert stored.read_bytes() == other
        else:
            stored.write_bytes(source)
            library.write_bytes(b"not a library")
        _clear_extension_choice()
        assert _cext.load("engine") is not None
        assert stored.read_bytes() == source
        assert library.read_bytes()[:4] == b"\x7fELF"
        # the cache holds the library and its source, and nothing else
        assert sorted(p.name for p in stem.parent.iterdir()) == sorted([
            stored.name, library.name])
    # a library whose stored source matches loads without any build
    monkeypatch.setattr(shutil, "which", lambda name: None)
    monkeypatch.setattr(_cext, "_build", None)
    _clear_extension_choice()
    assert _cext.load("engine") is not None


@needs_cc
@needs_python_h
def test_an_unwritable_cache_builds_in_a_private_directory(
        tmp_path, monkeypatch, fresh_extension_choice):
    # a file where the cache directory would be: nothing can be written
    # there, so the library is built in a temporary directory and loaded,
    # chains run its engine, and the file is left as it is
    blocked = tmp_path / "not-a-directory"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    assert _cext.load("engine") is not None
    assert simulate_module._engine() is not simulate_module._python_engine()
    assert blocked.read_text() == ""


@pytest.mark.skipif(shutil.which("false") is None, reason="no false on PATH")
def test_a_failed_build_falls_back_to_python(tmp_path, monkeypatch,
                                             fresh_extension_choice):
    # a compiler that fails leaves nothing behind in the cache, which is
    # private to the user, and every function runs its Python twin
    failing = shutil.which("false")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(shutil, "which", lambda name: failing)
    _builds_without_python_h(monkeypatch)
    assert simulate_module._engine() is simulate_module._python_engine()
    assert ode._c_flow() is None
    assert list((tmp_path / "lobfluid").iterdir()) == []
    assert (tmp_path / "lobfluid").stat().st_mode & 0o777 == 0o700


@needs_cc
def test_the_generated_c_compiles_without_warnings(build_extension):
    # the engine's C is part of the extension's one source; the module
    # built from it with warnings as errors passes the engine's check
    assert _cext._engine_agrees(build_extension.engine)


def test_a_relative_cache_home_is_ignored(tmp_path, monkeypatch,
                                          fresh_extension_choice):
    # the XDG Base Directory spec holds a relative XDG_CACHE_HOME invalid,
    # to be ignored: the cache is ~/.cache/lobfluid, not a directory under
    # the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setattr(shutil, "which", lambda name: "cc")
    _builds_without_python_h(monkeypatch)
    built = []
    monkeypatch.setattr(_cext, "_build",
                        lambda command, source, path: built.append(path))
    assert _cext.load("engine") is None
    assert not (tmp_path / "relcache").exists()
    assert [os.path.dirname(path) for path in built] == [
        str(tmp_path / "home" / ".cache" / "lobfluid")]


# Engines that build and run but are not the Python engine, each as
# (statement of the C source, its replacement) pairs. The regrouped total
# rate differs from it in the last bit of a few holding times only; a
# clock that never moves or is NaN never reaches the horizon, so a run
# uses up its budget; an M that never moves breaks the aggregates, which
# each run checks
BROKEN = {
    "regrouped-rate": [("lam + rqm * (B + S) + w_trade",
                        "lam + (rqm * (B + S) + w_trade)")],
    "frozen-clock": [("t -= log1p(", "t -= 0.0 * log1p(")],
    "nan-clock": [("t -= log1p(-u[2 * i]) / rate;", "t -= NAN;")],
    "frozen-m": [("M += 1.0", "M += 0.0"), ("M -= 1.0", "M -= 0.0")],
}


def _broken_source(case: str) -> str:
    source = _cext.SOURCE
    for statement, replacement in BROKEN[case]:
        assert statement in source
        source = source.replace(statement, replacement)
    return source


@needs_cc
@needs_python_h
@pytest.mark.parametrize("case", list(BROKEN), ids=list(BROKEN))
def test_a_library_that_disagrees_is_not_loaded(tmp_path, monkeypatch,
                                                fresh_extension_choice, case):
    # each broken engine builds and runs, but the engine's load-time check
    # refuses it, even where its runs raise: the Python engine runs, and
    # the bytes stay the same, while the flow, the writer, the solve and
    # the classify of that library pass their own checks and stay in use
    simulate_flags = ["simulate", *README_RUNS["simulate"], *MODEL]
    assert main([*simulate_flags, "--out-dir", str(tmp_path / "c")]) == 0
    broken = _broken_source(case)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_cext, "SOURCE", broken)
    _clear_extension_choice()
    assert simulate_module._engine() is simulate_module._python_engine()
    # it was built, and refused by the check
    name = f"ext-{zlib.crc32(broken.encode()):08x}{SUFFIX}"
    assert (tmp_path / "cache" / "lobfluid" / name).exists()
    assert ode._c_flow() is not None
    assert output._c_write() is not None
    assert fixed_point._c_solve() is not None
    assert fixed_point._c_classify() is not None
    assert main([*simulate_flags, "--out-dir", str(tmp_path / "python")]) == 0
    for name in ("trajectory.csv", "manifest.json"):
        assert ((tmp_path / "python" / name).read_bytes()
                == (tmp_path / "c" / name).read_bytes()), name


@needs_cc
@needs_python_h
def test_the_check_refuses_a_last_bit_difference_at_other_seeds(
        tmp_path, monkeypatch, fresh_extension_choice):
    # the regrouped rate shows only in the last bit of a few holding times,
    # which the short runs' clocks keep: the check refuses that engine,
    # and passes the real one, under other seed bases too
    engine = simulate_module._engine()
    assert engine is not simulate_module._python_engine()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_cext, "SOURCE", _broken_source("regrouped-rate"))
    _clear_extension_choice()
    agrees, checked = _cext._engine_agrees, []
    monkeypatch.setattr(_cext, "_engine_agrees", checked.append)
    assert _cext.load("engine") is None
    regrouped, = checked
    for seed in range(1, 11):
        monkeypatch.setattr(_cext, "SEED", seed)
        assert agrees(engine), seed
        assert not agrees(regrouped), seed


@needs_cc
@needs_python_h
def test_a_fused_engine_library_is_refused(tmp_path, monkeypatch,
                                           fresh_extension_choice):
    # a library built to fuse multiply-adds rounds some holding times
    # otherwise than Python does, and the engine check's runs passed one
    # at 6 of seed bases 1 to 20; its canary refuses the whole library at
    # every one, so every function runs its Python twin
    if not fuses(tmp_path, fused_flags()):
        pytest.skip("cc does not fuse a multiply-add on this machine")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_cext, "FLAGS", fused_flags())
    for seed in range(1, 21):
        monkeypatch.setattr(_cext, "SEED", seed)
        _clear_extension_choice()
        assert simulate_module._engine() is simulate_module._python_engine()
        assert ode._c_flow() is None, seed
        assert output._c_write() is None, seed
        assert fixed_point._c_solve() is None, seed
        assert fixed_point._c_classify() is None, seed
    # it was built, and refused
    name = f"ext-{zlib.crc32(_cext.SOURCE.encode()):08x}{SUFFIX}"
    assert (tmp_path / "cache" / "lobfluid" / name).exists()


@pytest.mark.parametrize("command, asked", [
    ("converge", ["flow", "engine"]),
    ("solve", ["solve", "classify"]),
], ids=["converge", "solve"])
def test_a_run_checks_only_the_functions_it_calls(tmp_path, command, asked):
    # each accessor runs its function's load-time check at its first call
    # in a process, so a fresh interpreter asks for what its command calls
    # and no more: the README converge integrates the ODE and runs chains
    # but solves no fixed point, so it never runs the solve's or the
    # classify's check, and solve runs those two checks alone
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(os.path.dirname(os.path.dirname(_cext.__file__))),
         *filter(None, [env.get("PYTHONPATH")])])
    argv = [command, *README_RUNS.get(command, []), *MODEL,
            "--out-dir", str(tmp_path)]
    code = (
        "import contextlib, importlib, io, lobfluid.cli\n"
        "from lobfluid import fixed_point, ode, output\n"
        "simulate = importlib.import_module('lobfluid.simulate')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert lobfluid.cli.main({argv!r}) == 0\n"
        "accessors = {'flow': ode._c_flow, 'writer': output._c_write,\n"
        "             'solve': fixed_point._c_solve,\n"
        "             'classify': fixed_point._c_classify,\n"
        "             'engine': simulate._engine}\n"
        "print(*[name for name, accessor in accessors.items()\n"
        "        if accessor.cache_info().currsize])\n")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == asked


def test_the_c_source_is_pinned():
    # a machine rebuilds its cached library whenever the extension's C
    # source changes, the flow's, the writer's, the solve's, the
    # classify's or the engine's as rendered; a change to it updates this
    # crc32 on purpose
    assert zlib.crc32(_cext.SOURCE.encode()) == 0xa536a848


@pytest.mark.skipif(shutil.which("sleep") is None, reason="no sleep on PATH")
def test_a_build_that_hangs_is_stopped(tmp_path, monkeypatch,
                                       fresh_extension_choice):
    # a compiler that never returns is killed after BUILD_TIMEOUT_S, and
    # leaves no process and no file behind
    pid_file = tmp_path / "pid"
    compiler = tmp_path / "cc"
    compiler.write_text(f"#!/bin/sh\necho $$ > '{pid_file}'\n"
                        f"exec '{shutil.which('sleep')}' 60\n")
    compiler.chmod(0o755)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(shutil, "which", lambda name: str(compiler))
    monkeypatch.setattr(_cext, "BUILD_TIMEOUT_S", 0.5)
    _builds_without_python_h(monkeypatch)
    start = time.monotonic()
    assert _cext.load("engine") is None
    assert time.monotonic() - start < 10
    assert list((tmp_path / "cache" / "lobfluid").iterdir()) == []
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def engine_arguments() -> dict:
    """The arguments a chain hands the engine, by name and in order, as
    `_Chain` makes them, at N = 3 with four sample times, reset, and a
    size of 8 pairs."""
    chain = _Chain(ModelParams(3, 1.0, 1.5, 0.2, 0.1, 0.4), ScalingLevel(1),
                   DiscreteState(np.array([3, 0, 5]), np.array([0, 2, 4])),
                   20.0, [0.0, 5.0, 10.0, 15.0], 100,
                   engine=lambda *args: None)
    chain.u.fill(0.5)
    chain.book[:] = chain.start
    chain.clock[:] = chain.start_clock
    chain.next_sample[0] = 0
    chain.tally.fill(0)
    chain.samples.fill(0.0)
    return {"u": chain.u, "size": 8, "rates": chain.rates, "t_end": 20.0,
            "sample_ts": chain.sample_ts, "book": chain.book,
            "clock": chain.clock, "next_sample": chain.next_sample,
            "tally": chain.tally, "xs": chain.xs, "ys": chain.ys}


@pytest.mark.parametrize("size", [0, 1, 8])
def test_both_renderings_take_one_argument_list(size):
    # the Python engine and the extension's engine are called alike, with
    # the buffers a chain hands them: on copies of one argument list they
    # return the same index and leave the same bytes, from the reset clock
    # and from a clock already at the horizon, where no pair fires
    extension = _cext._extension()
    if extension is None:
        pytest.skip("the extension did not load (no compiler cc or no "
                    "Python.h)")
    for t in (0.0, 20.0):
        ended, written = [], []
        for engine in (simulate_module._python_engine(), extension.engine):
            arguments = {name: value.copy() if isinstance(value, np.ndarray)
                         else value
                         for name, value in engine_arguments().items()}
            arguments["size"] = size
            arguments["clock"][0] = t
            ended.append(engine(*arguments.values()))
            written.append([value.tobytes() for value in arguments.values()
                            if isinstance(value, np.ndarray)])
        assert ended[0] == ended[1] == (size if t == 0.0 else 0), t
        assert written[0] == written[1], t


def _read_only(array):
    array = array.copy()
    array.flags.writeable = False
    return array


TYPES = "engine takes float64 arrays, and int64 next_sample and tally"
SIZES = ("engine takes 2 size uniforms or more, 7 rates, m sample times, a "
         "book of 2 rows of n >= 1, a clock of 4 values, a next_sample from "
         "0 to m, a tally of 9 rows of n, and xs and ys of m rows of n")
# the engine's refusals by case: (the arguments changed, exception,
# message); a message of None is numpy's or the interpreter's, not pinned
ENGINE_REFUSALS = {
    "float32-u": (lambda a: {"u": a["u"].astype(np.float32)}, TypeError,
                  TYPES),
    "list-u": (lambda a: {"u": a["u"].tolist()}, TypeError, None),
    "int64-rates": (lambda a: {"rates": a["rates"].astype(np.int64)},
                    TypeError, TYPES),
    "float64-tally": (lambda a: {"tally": a["tally"].astype(np.float64)},
                      TypeError, TYPES),
    "int32-next-sample": (lambda a: {"next_sample": np.zeros(1, np.int32)},
                          TypeError, TYPES),
    "float64-next-sample": (lambda a: {"next_sample": np.zeros(1)},
                            TypeError, TYPES),
    "flat-book": (lambda a: {"book": a["book"].ravel()}, TypeError, TYPES),
    "float-size": (lambda a: {"size": 8.0}, TypeError, None),
    "text-t-end": (lambda a: {"t_end": "20"}, TypeError, None),
    "read-only-book": (lambda a: {"book": _read_only(a["book"])},
                       ValueError, None),
    "read-only-xs": (lambda a: {"xs": _read_only(a["xs"])}, ValueError,
                     None),
    "strided-ys": (lambda a: {"ys": np.repeat(a["ys"], 2, axis=1)[:, ::2]},
                   ValueError, None),
    "negative-size": (lambda a: {"size": -1}, ValueError, SIZES),
    "size-past-u": (lambda a: {"size": a["u"].size // 2 + 1}, ValueError,
                    SIZES),
    "short-rates": (lambda a: {"rates": a["rates"][:6]}, ValueError, SIZES),
    "short-sample-ts": (lambda a: {"sample_ts": a["sample_ts"][:3]},
                        ValueError, SIZES),
    "book-of-3-rows": (lambda a: {"book": np.zeros((3, 3))}, ValueError,
                       SIZES),
    "book-of-4-levels": (lambda a: {"book": np.zeros((2, 4))}, ValueError,
                         SIZES),
    "short-clock": (lambda a: {"clock": a["clock"][:3]}, ValueError, SIZES),
    "next-sample-past-m": (lambda a: {"next_sample": np.array([5])},
                           ValueError, SIZES),
    "negative-next-sample": (lambda a: {"next_sample": np.array([-1])},
                             ValueError, SIZES),
    "two-next-samples": (lambda a: {"next_sample": np.zeros(2, np.int64)},
                         ValueError, SIZES),
    "tally-of-8-rows": (lambda a: {"tally": a["tally"][:8]}, ValueError,
                        SIZES),
    "ys-of-3-samples": (lambda a: {"ys": a["ys"][:3]}, ValueError, SIZES),
    "zero-levels": (lambda a: {"book": np.zeros((2, 0)),
                               "tally": np.zeros((9, 0), np.int64),
                               "xs": np.zeros((4, 0)),
                               "ys": np.zeros((4, 0))}, ValueError, SIZES),
    "ten-arguments": (lambda a: {"ys": None}, TypeError,
                      "engine takes 11 arguments"),
}


@pytest.mark.parametrize("case", list(ENGINE_REFUSALS),
                         ids=list(ENGINE_REFUSALS))
def test_the_c_engine_refuses_other_arguments(case):
    # each refusal raises before the engine runs: no buffer it could
    # write changes
    extension = _cext._extension()
    if extension is None:
        pytest.skip("the extension did not load (no compiler cc or no "
                    "Python.h)")
    change, exception, message = ENGINE_REFUSALS[case]
    arguments = engine_arguments()
    arguments |= change(arguments)
    if arguments["ys"] is None:
        del arguments["ys"]
    before = [np.array(value, copy=True) for value in arguments.values()
              if isinstance(value, np.ndarray)]
    with pytest.raises(exception) as refused:
        extension.engine(*arguments.values())
    if message is not None:
        assert str(refused.value) == message
    after = [value for value in arguments.values()
             if isinstance(value, np.ndarray)]
    for was, now in zip(before, after, strict=True):
        assert was.tobytes() == now.tobytes()
