"""Packaging shim; the metadata lives in pyproject.toml.

Nothing is compiled at install time: ``plantprop._kernel`` compiles the C
core (``src/plantprop/_ppa.c``) with ``cc`` on first import, into a per-user
cache directory.
"""

from setuptools import setup

setup()
