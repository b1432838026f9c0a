"""Package configuration for ``repro``.

Installs the ``src/repro`` package.  The version is read from
``src/repro/__init__.py`` so it is declared in one place::

    python setup.py --name --version
    pip install -e . --no-use-pep517
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["isla-experiments = repro.experiments.cli:main"]},
)
