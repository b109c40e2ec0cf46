"""Legacy setup shim.

Without network access or the ``wheel`` package, PEP 517 editable installs
(which build a wheel) fail.  This shim lets
``pip install -e . --no-build-isolation --no-use-pep517`` fall back to the
classic ``setup.py develop`` path.  The metadata is the minimal set below:
the ``repro`` package under ``src/``, depending on numpy only.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
