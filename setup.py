"""Build script.

The package is pure Python plus one optional C extension,
pitchcut._speedups, with the dynamic-programming kernels.  It is
built from the hand-written src/pitchcut/_speedups.c and needs only a C
compiler.  If compilation fails the install proceeds without the
extension; pitchcut.kernels then falls back to the bignum Python
implementations at import time.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("pitchcut._speedups",
                             ["src/pitchcut/_speedups.c"], optional=True)])
