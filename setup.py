"""Setuptools entry point.

A plain ``setup.py`` (with no ``[build-system]`` table in
``pyproject.toml``) keeps ``pip install -e .`` working in fully offline
environments: PEP 517 editable installs require the ``wheel`` package,
which may not be available without network access, while the legacy
``setup.py develop`` path needs only setuptools.
"""

import re

from setuptools import find_packages, setup

# The version lives in one place, ``repro.__version__`` (envelopes carry
# it as ``library_version``).  Read it from the source text: importing
# the package here would need its dependencies installed first.
with open("src/repro/__init__.py", encoding="utf-8") as fh:
    VERSION = re.search(r'^__version__ = "([^"]+)"', fh.read(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of 'A Note on Cycle Covering' (SPAA 2001): "
        "DRC cycle coverings for survivable WDM ring networks"
    ),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    # The solver, dispatcher, SAT tier and `repro serve` run on the
    # standard library; networkx serves the extensions (trees of rings,
    # grids, tori), wavelength colouring and PhysicalNetwork.
    install_requires=["networkx>=3.0"],
    extras_require={
        # numpy only for the test that as_int accepts numpy integers.
        "dev": ["pytest>=7.0", "pytest-benchmark>=4.0", "hypothesis>=6.0", "numpy>=1.24"],
        # Optional accelerator, probed at runtime: the SAT backend's
        # pysat engine degrades to the bundled CDCL (REPRO_SAT), so it
        # is not a hard install requirement.
        "sat": ["python-sat>=0.1.7"],
        "all": ["python-sat>=0.1.7"],
    },
    license="MIT",
)
