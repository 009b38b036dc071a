from setuptools import setup, Extension

# optional: without a C compiler the package installs and runs on the
# pure-Python core
setup(ext_modules=[Extension("altcox._tc_core", ["src/altcox/_tc_core.c"],
                             optional=True)])
