"""Setup script for the repro package.

Kept as a classic ``setup.py`` (rather than pyproject-only) so editable
installs work in offline environments where PEP 660 build isolation is
unavailable: ``pip install -e .``.
"""

import os

from setuptools import find_packages, setup


def _read_version():
    version = {}
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "src", "repro", "version.py")) as fh:
        exec(fh.read(), version)
    return version["__version__"]


setup(
    name="repro-simgrid-hpdc06",
    version=_read_version(),
    description=(
        "Pure-Python reproduction of the SimGrid HPDC'06 framework: a "
        "fluid (MaxMin) platform simulator with s4u actor/activity, GRAS "
        "and SMPI APIs"
    ),
    long_description=(
        "A reproduction of the SimGrid HPDC'06 system: the SURF fluid "
        "simulation core with MaxMin fairness, a unified s4u "
        "actor/activity API (Engine, Actor, Mailbox, Comm/Exec/Sleep "
        "futures, ActivitySet) that replaces the paper's MSG interface, "
        "the paper's GRAS and SMPI interfaces rebased on it, plus a "
        "packet-level TCP validator, "
        "wire-format comparators, the AMOK toolbox and Gantt tracing."
    ),
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=[],  # standard library only, by design
    extras_require={"test": ["pytest", "hypothesis", "numpy"]},
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Distributed Computing",
        "Topic :: Scientific/Engineering",
    ],
)
