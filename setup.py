"""Setup shim.

The project metadata lives in ``pyproject.toml``.  This file exists only so
the package can be installed in environments without the ``wheel`` package
(where PEP 660 editable installs are unavailable) via::

    python setup.py develop
"""

from setuptools import setup

setup()
