"""Build script.

The package is pure Python plus one optional C extension with the three
dynamic-programming kernels.  With Cython the extension is built from
_speedups.pyx; without it, from the generated _speedups.c that ships in
the source tree.  If compilation fails the install proceeds without the
extension; pitchcut.kernels then falls back to the bignum Python
implementations at import time.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    extensions = [Extension("pitchcut._speedups",
                            ["src/pitchcut/_speedups.c"], optional=True)]
else:
    extensions = cythonize(
        [Extension("pitchcut._speedups", ["src/pitchcut/_speedups.pyx"],
                   optional=True)],
        compiler_directives={"language_level": "3", "boundscheck": False, "wraparound": False},
    )

setup(ext_modules=extensions)
