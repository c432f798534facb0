"""Packaging for the holistic-indexing reproduction.

All metadata lives here (instead of pyproject.toml) so that fully
offline environments keep an install path: `pip install -e .` works
wherever pip can provision its isolated build backend; without network
and without the `wheel` package, `python setup.py develop` installs
the same editable package through the legacy path.  Either way the
`repro` package imports without `PYTHONPATH=src`.
"""

from setuptools import find_packages, setup

setup(
    name="repro-holistic-indexing",
    version="1.0.0",
    description=(
        "Reproduction of 'Holistic Indexing: Offline, Online and "
        "Adaptive Indexing in the Same Kernel' (SIGMOD 2012): a "
        "column-store substrate, database cracking, offline/online "
        "tuning, the holistic kernel with parallel idle-time tuning "
        "workers, and a bench harness for the paper's experiments."
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    package_dir={"": "src"},
    packages=find_packages("src"),
    license="MIT",
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Database :: Database Engines/Servers",
    ],
)
