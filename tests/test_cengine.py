"""The C engine: its build, its cache, and the Python fallback's bytes."""

import ctypes
import importlib
import os
import shutil
import subprocess
import time
import zlib

import pytest
from conftest import engines, fused_flags, fuses, needs_cc

from lobfluid import _cbuild, _cengine
from lobfluid.cli import main

simulate_module = importlib.import_module("lobfluid.simulate")

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


@pytest.fixture
def fresh_engine_choice():
    """Lets a test choose the engine again, and the next test after it."""
    simulate_module._engine.cache_clear()
    yield
    simulate_module._engine.cache_clear()


def _readme_outputs(out_dir) -> dict:
    outputs = {}
    for command, flags in README_RUNS.items():
        assert main([command, *flags, *MODEL,
                     "--out-dir", str(out_dir / command)]) == 0
        outputs |= {f"{command}/{path.name}": path.read_bytes()
                    for path in sorted((out_dir / command).iterdir())}
    return outputs


@needs_cc
def test_the_c_engine_loads_where_a_compiler_is_found():
    # where cc is found, the engine a chain runs is the C one; the tests
    # that compare renderings then compare C with Python
    assert set(engines()) == {"python", "c"}


@needs_cc
def test_the_fallback_writes_the_c_engine_bytes(tmp_path, monkeypatch,
                                                fresh_engine_choice):
    # with no compiler found and nothing cached, the Python engine runs,
    # and every CSV and manifest of the README runs keeps its bytes
    assert simulate_module._engine() is not simulate_module._python_engine()
    compiled = _readme_outputs(tmp_path / "c")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
    monkeypatch.setattr(shutil, "which", lambda name: None)
    simulate_module._engine.cache_clear()
    assert simulate_module._engine() is simulate_module._python_engine()
    fallback = _readme_outputs(tmp_path / "python")
    assert not (tmp_path / "empty").exists()
    assert fallback.keys() == compiled.keys()
    assert len(compiled) == 6  # a CSV and a manifest per command
    for name in compiled:
        assert fallback[name] == compiled[name], name


@needs_cc
def test_a_cached_library_of_another_source_is_rebuilt(tmp_path,
                                                       monkeypatch):
    # the cache file is named by the source's crc32 and the stored source
    # is compared byte for byte: a working library built from another
    # source under that name (as after a crc32 collision) is rebuilt, not
    # loaded, and so is a library that does not load. Each case has a
    # cache of its own, since a process that loaded a library from a path
    # gets that library back from the path
    source = _cengine._source().encode()
    name = f"engine-{zlib.crc32(source):08x}"
    other = source + b"/* another source */\n"
    for case in ("other-source", "not-a-library"):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / case))
        stem = tmp_path / case / "lobfluid" / name
        stem.parent.mkdir(parents=True)
        stored = stem.with_name(name + ".c")
        library = stem.with_name(name + ".so")
        if case == "other-source":
            assert _cbuild._build((shutil.which("cc"), *_cbuild.FLAGS),
                                  other, str(stem), ".so",
                                  ctypes.CDLL) is not None
            assert stored.read_bytes() == other
        else:
            stored.write_bytes(source)
            library.write_bytes(b"not a library")
        assert _cengine.load() is not None
        assert stored.read_bytes() == source
        assert library.read_bytes()[:4] == b"\x7fELF"
        # the cache holds the library and its source, and nothing else
        assert sorted(p.name for p in stem.parent.iterdir()) == [
            stored.name, library.name]
    # a library whose stored source matches loads without any build
    monkeypatch.setattr(shutil, "which", lambda name: None)
    monkeypatch.setattr(_cbuild, "_build", None)
    assert _cengine.load() is not None


@needs_cc
def test_an_unwritable_cache_builds_in_a_private_directory(tmp_path,
                                                           monkeypatch):
    # a file where the cache directory would be: nothing can be written
    # there, so the library is built in a temporary directory and loaded
    blocked = tmp_path / "not-a-directory"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    assert _cengine.load() is not None
    assert blocked.read_text() == ""


@pytest.mark.skipif(shutil.which("false") is None, reason="no false on PATH")
def test_a_failed_build_falls_back_to_python(tmp_path, monkeypatch):
    # a compiler that fails leaves nothing behind in the cache, which is
    # private to the user
    failing = shutil.which("false")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(shutil, "which", lambda name: failing)
    assert _cengine.load() is None
    assert list((tmp_path / "lobfluid").iterdir()) == []
    assert (tmp_path / "lobfluid").stat().st_mode & 0o777 == 0o700


@needs_cc
def test_the_generated_c_compiles_without_warnings(tmp_path):
    source = tmp_path / "engine.c"
    source.write_text(_cengine._source())
    built = subprocess.run(
        ["cc", *_cbuild.FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "engine.so"), str(source), "-lm"],
        capture_output=True, text=True)
    assert built.returncode == 0, built.stderr


def test_a_relative_cache_home_is_ignored(tmp_path, monkeypatch):
    # the XDG Base Directory spec holds a relative XDG_CACHE_HOME invalid,
    # to be ignored: the cache is ~/.cache/lobfluid, not a directory under
    # the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setattr(shutil, "which", lambda name: "cc")
    built = []
    monkeypatch.setattr(_cbuild, "_build",
                        lambda command, source, path, *_: built.append(path))
    assert _cengine.load() is None
    assert not (tmp_path / "relcache").exists()
    assert [os.path.dirname(path) for path in built] == [
        str(tmp_path / "home" / ".cache" / "lobfluid")]


# Libraries that build and run but are not the Python engine, each as
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
    source = _cengine._source()
    for statement, replacement in BROKEN[case]:
        assert statement in source
        source = source.replace(statement, replacement)
    return source


@needs_cc
@pytest.mark.parametrize("case", list(BROKEN), ids=list(BROKEN))
def test_a_library_that_disagrees_is_not_loaded(tmp_path, monkeypatch,
                                                fresh_engine_choice, case):
    # each broken library builds and runs, but the load-time check refuses
    # it, even where its runs raise: the Python engine runs, and the bytes
    # stay the same
    simulate_flags = ["simulate", *README_RUNS["simulate"], *MODEL]
    assert main([*simulate_flags, "--out-dir", str(tmp_path / "c")]) == 0
    broken = _broken_source(case)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_cengine, "_source", lambda: broken)
    assert _cengine.load() is None
    # it was built, and refused by the check
    name = f"engine-{zlib.crc32(broken.encode()):08x}.so"
    assert (tmp_path / "cache" / "lobfluid" / name).exists()
    simulate_module._engine.cache_clear()
    assert simulate_module._engine() is simulate_module._python_engine()
    assert main([*simulate_flags, "--out-dir", str(tmp_path / "python")]) == 0
    for name in ("trajectory.csv", "manifest.json"):
        assert ((tmp_path / "python" / name).read_bytes()
                == (tmp_path / "c" / name).read_bytes()), name


@needs_cc
def test_the_check_refuses_a_last_bit_difference_at_other_seeds(
        tmp_path, monkeypatch):
    # the regrouped rate shows only in the last bit of a few holding times,
    # which the short runs' clocks keep: the check refuses that library,
    # and passes the real one, under other seed bases too
    engine = simulate_module._engine()
    assert engine is not simulate_module._python_engine()
    broken = _broken_source("regrouped-rate")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_cengine, "_source", lambda: broken)
    agrees, checked = _cengine._agrees, []
    monkeypatch.setattr(_cengine, "_agrees", checked.append)
    assert _cengine.load() is None
    regrouped, = checked
    for seed in range(1, 11):
        monkeypatch.setattr(_cengine, "SEED", seed)
        assert agrees(engine), seed
        assert not agrees(regrouped), seed


@needs_cc
def test_a_fused_engine_library_is_refused(tmp_path, monkeypatch):
    # a library built to fuse multiply-adds rounds some holding times
    # otherwise than Python does, and the check's runs passed one at 6 of
    # seed bases 1 to 20; its canary refuses it at every one
    if not fuses(tmp_path, fused_flags()):
        pytest.skip("cc does not fuse a multiply-add on this machine")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_cbuild, "FLAGS", fused_flags())
    for seed in range(1, 21):
        monkeypatch.setattr(_cengine, "SEED", seed)
        assert _cengine.load() is None, seed
    # it was built, and refused
    name = f"engine-{zlib.crc32(_cengine._source().encode()):08x}.so"
    assert (tmp_path / "cache" / "lobfluid" / name).exists()


def test_the_c_source_is_pinned():
    # a machine rebuilds its cached library whenever the rendered C source
    # changes; a change that re-renders it updates this crc32 on purpose
    assert zlib.crc32(_cengine._source().encode()) == 0x1b7ca975


@pytest.mark.skipif(shutil.which("sleep") is None, reason="no sleep on PATH")
def test_a_build_that_hangs_is_stopped(tmp_path, monkeypatch):
    # a compiler that never returns is killed after BUILD_TIMEOUT_S, and
    # leaves no process and no file behind
    pid_file = tmp_path / "pid"
    compiler = tmp_path / "cc"
    compiler.write_text(f"#!/bin/sh\necho $$ > '{pid_file}'\n"
                        f"exec '{shutil.which('sleep')}' 60\n")
    compiler.chmod(0o755)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(shutil, "which", lambda name: str(compiler))
    monkeypatch.setattr(_cbuild, "BUILD_TIMEOUT_S", 0.5)
    start = time.monotonic()
    assert _cengine.load() is None
    assert time.monotonic() - start < 10
    assert list((tmp_path / "cache" / "lobfluid").iterdir()) == []
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
