"""Run the compiled core's tests against a sanitizer build of the core.

    python tools/sanitize_core.py [extra pytest arguments]

Copies the pure-Python package into a temporary directory, compiles
src/altcox/_tc_core.c into it with -fsanitize=address,undefined, and runs
the tests of tests/test_engine.py that call the compiled core, the random
differential test among them, against that copy, with the AddressSanitizer
and UndefinedBehaviorSanitizer runtimes preloaded into Python.  Exits
non-zero when the build fails, a test fails or a sanitizer reports
anything.  It needs a C compiler that ships both runtimes (gcc or clang;
CC overrides), so it is not part of the test suite.
"""

import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLAGS = ["-shared", "-fPIC", "-g", "-O1", "-fno-omit-frame-pointer",
         "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined"]
# the tests in tests/test_engine.py that run the compiled core
CORE_TESTS = "compiled or backend or cores"
REPORTS = ("ERROR: AddressSanitizer", "runtime error:")


def runtime(cc, name):
    """The path of the compiler's sanitizer runtime name, or exit."""
    path = subprocess.run([cc, f"-print-file-name={name}"], capture_output=True,
                          text=True).stdout.strip()
    if not os.path.isabs(path):
        sys.exit(f"{cc} has no {name}")
    return path


def main(argv):
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    preload = [runtime(cc, "libasan.so"), runtime(cc, "libubsan.so")]
    with tempfile.TemporaryDirectory() as tmp:
        pkg = Path(tmp) / "altcox"
        shutil.copytree(ROOT / "src" / "altcox", pkg,
                        ignore=shutil.ignore_patterns("*.so", "*.c", "__pycache__"))
        ext = pkg / ("_tc_core" + sysconfig.get_config_var("EXT_SUFFIX"))
        build = [cc, *FLAGS, "-I" + sysconfig.get_paths()["include"],
                 str(ROOT / "src" / "altcox" / "_tc_core.c"), "-o", str(ext)]
        if subprocess.run(build).returncode:
            return 1
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONMALLOC="malloc",
                   PYTHONDONTWRITEBYTECODE="1", LD_PRELOAD=" ".join(preload),
                   ASAN_OPTIONS="detect_leaks=0", UBSAN_OPTIONS="print_stacktrace=1")
        # the tests must reach the sanitized build, not an installed core
        where = subprocess.run([sys.executable, "-c", "import altcox._tc_core as m; "
                                "print(m.__file__)"], env=env, capture_output=True,
                               text=True)
        if where.stdout.strip() != str(ext):
            print(where.stdout + where.stderr, file=sys.stderr)
            return 1
        # --capture=sys: a sanitizer writes to file descriptor 2 and ends the
        # process, which would lose what pytest's default capture holds
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "--capture=sys",
                              "-p", "no:cacheprovider", str(ROOT / "tests" / "test_engine.py"),
                              "-k", CORE_TESTS, *argv],
                             cwd=ROOT, env=env, capture_output=True, text=True)
    print(run.stdout + run.stderr, end="")
    reported = any(r in run.stdout + run.stderr for r in REPORTS)
    if reported:
        print("sanitizer report above", file=sys.stderr)
    return 1 if reported or run.returncode else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
