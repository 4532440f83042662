"""Build hooks for the optional compiled event core.

The package is pure Python plus ONE optional C extension,
``repro._core._cext`` (see ``src/repro/_core/__init__.py`` for the backend
contract).  The extension is a strictly best-effort build: on a machine
without a C compiler or Python headers, ``pip install -e .`` must still
succeed and the package must import and run — the backend selector falls
back to the pure-Python event core.  A failed extension build therefore
prints a notice and continues instead of failing the install.

Set ``REPRO_REQUIRE_CEXT=1`` to turn a failed extension build into a hard
error (CI's compiled job does), or ``REPRO_SKIP_CEXT=1`` to not attempt it
at all.  The extension can always be (re)built later, in place, with::

    python -m repro._core.build
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the extension if we can; fall back to pure Python if we can't."""

    def run(self):
        try:
            super().run()
        except Exception as error:  # noqa: BLE001 - any toolchain failure
            self._handle(error)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as error:  # noqa: BLE001 - any toolchain failure
            self._handle(error)

    @staticmethod
    def _handle(error):
        if os.environ.get("REPRO_REQUIRE_CEXT"):
            raise
        print(
            "warning: could not build the optional compiled event core "
            f"({error!r}); installing with the pure-Python backend. "
            "Build it later with: python -m repro._core.build"
        )


ext_modules = []
cmdclass = {}
if not os.environ.get("REPRO_SKIP_CEXT"):
    ext_modules = [
        Extension(
            "repro._core._cext",
            sources=[
                "src/repro/_core/_cext.c",
                "src/repro/_core/_chandlers.c",
                "src/repro/_core/_issue.c",
            ],
            depends=["src/repro/_core/_core.h"],
            # Keep the C float arithmetic bit-identical to Python's: no
            # contraction of multiply-adds into FMA instructions.
            extra_compile_args=["-ffp-contract=off"],
            optional=not os.environ.get("REPRO_REQUIRE_CEXT"),
        )
    ]
    cmdclass = {"build_ext": OptionalBuildExt}

setup(ext_modules=ext_modules, cmdclass=cmdclass)
