"""Setuptools entry point.

A plain ``setup.py`` (with no ``[build-system]`` table in
``pyproject.toml``) keeps ``pip install -e .`` working in fully offline
environments: PEP 517 editable installs require the ``wheel`` package,
which may not be available without network access, while the legacy
``setup.py develop`` path needs only setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
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
    install_requires=["numpy>=1.24", "networkx>=3.0"],
    extras_require={
        "dev": ["pytest>=7.0", "pytest-benchmark>=4.0", "hypothesis>=6.0"],
        # Optional accelerator, probed at runtime: the SAT backend's
        # pysat engine degrades to the bundled CDCL (REPRO_SAT), so it
        # is not a hard install requirement.
        "sat": ["python-sat>=0.1.7"],
        "all": ["python-sat>=0.1.7"],
    },
    license="MIT",
)
