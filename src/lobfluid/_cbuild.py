"""The build and cache of the package's three C libraries: the simulator's
engine (`_cengine`, loaded with ctypes), and two CPython extension modules
(`extension`): the fluid right-hand side that LSODA calls (`_cflow`) and
the state CSV writer (`_cwrite`).

Each library is compiled with `cc -O2 -ffp-contract=off` and no
fast-math, so each product and sum rounds as Python's does, and it is
built once per source into `$XDG_CACHE_HOME/lobfluid` (else
`~/.cache/lobfluid`, made with mode 0700) as `<name>-<crc32 of the
source>` plus the library's file suffix, beside the source it was built
from. A cached library is loaded only when that stored source equals the
rendered one byte for byte; any other is rebuilt. The compiler writes to
temporary files that `os.replace` installs, the library before its source,
so concurrent processes never load a half-written library. Where the cache
cannot be written, the library is built in a temporary directory private
to the process. `subprocess` is imported only to build, and this module
imports nothing of the package, so loading a cached library runs no other
module of it.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import shutil
import tempfile
import zlib
from contextlib import suppress

FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120  # a compiler that hangs must not hang the run


def _build(command: tuple, source: bytes, path: str, suffix: str, load):
    """The library built from source by command (the compiler and its
    flags) and installed as path + suffix, with source as path + ".c",
    then loaded by load; or None if the compiler fails. Raises OSError if
    path's directory cannot be written, and OSError or ImportError if the
    library cannot be loaded."""
    import subprocess

    fd, c_file = tempfile.mkstemp(suffix=".c", dir=os.path.dirname(path))
    so_file = c_file[:-2] + suffix
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(source)
        try:
            built = subprocess.run(
                [*command, "-o", so_file, c_file, "-lm"],
                capture_output=True, timeout=BUILD_TIMEOUT_S).returncode == 0
        except (OSError, subprocess.SubprocessError):
            built = False
        if not built:
            return None
        os.replace(so_file, path + suffix)
        os.replace(c_file, path + ".c")
    finally:
        for leftover in (c_file, so_file):
            with suppress(FileNotFoundError):
                os.remove(leftover)
    return load(path + suffix)


def library(name: str, source: str, suffix: str = ".so", load=ctypes.CDLL,
            flags=tuple):
    """The library built from source, loaded by load from its file: the
    cached one if its stored source equals source, else one built now.
    flags() gives the compiler's flags beyond FLAGS, or None where the
    build cannot run; it is called only to build. Returns None without a
    compiler `cc`, when flags() is None, or when the build fails."""
    source = source.encode()
    stem = f"{name}-{zlib.crc32(source):08x}"
    # the XDG Base Directory spec: a relative path is invalid, and ignored
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):
        cache = os.path.join(os.path.expanduser("~"), ".cache")
    cache = os.path.join(cache, "lobfluid")
    path = os.path.join(cache, stem)
    with suppress(OSError, ImportError):
        with open(path + ".c", "rb") as cached:
            if cached.read() == source:
                return load(path + suffix)
    compiler = shutil.which("cc")
    extra = None if compiler is None else flags()
    if extra is None:
        return None
    command = (compiler, *FLAGS, *extra)
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        return _build(command, source, path, suffix, load)
    except (OSError, ImportError):
        pass  # the cache cannot be written, or not loaded from
    try:
        with tempfile.TemporaryDirectory() as private:
            return _build(command, source, os.path.join(private, stem),
                          suffix, load)
    except (OSError, ImportError):
        return None


def _python_flags():
    """The include flag of the interpreter's headers, or None where it has
    no Python.h."""
    import sysconfig

    include = sysconfig.get_path("include")
    if not os.path.isfile(os.path.join(include, "Python.h")):
        return None
    return (f"-I{include}",)


def _load_extension(module: str, path: str):
    """The extension module named module in the file path, registered
    nowhere in sys.modules; raises ImportError if the file is not one."""
    loader = importlib.machinery.ExtensionFileLoader(module, path)
    spec = importlib.util.spec_from_file_location(module, path, loader=loader)
    loaded = importlib.util.module_from_spec(spec)
    loader.exec_module(loaded)
    return loaded


def extension(name: str, module: str, source: str):
    """The CPython extension module named module (its init is
    PyInit_<module>), built from source with the interpreter's Python.h
    into `<name>-<crc32>` plus the interpreter's extension suffix, so
    interpreters of another ABI never share a library. Returns None as
    `library` does, and also where the interpreter has no Python.h."""
    return library(name, source, importlib.machinery.EXTENSION_SUFFIXES[0],
                   lambda path: _load_extension(module, path), _python_flags)
