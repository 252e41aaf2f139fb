"""API-surface contract: every ``__all__`` name exists, is documented,
and docs/API.md stays in sync with the live packages."""

import importlib
import os
import re

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.machine",
    "repro.ir",
    "repro.ir.passes",
    "repro.ir.lint",
    "repro.models",
    "repro.sched",
    "repro.gpu",
    "repro.sim",
    "repro.kernels",
    "repro.arrays",
    "repro.stream",
    "repro.trace",
    "repro.harness",
    "repro.harness.engine",
    "repro.harness.journal",
    "repro.service",
    "repro.chaos",
    "repro.ioutil",
]

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("modname", PACKAGES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    exported = getattr(mod, "__all__", None)
    assert exported, f"{modname} has no __all__"
    for name in exported:
        assert hasattr(mod, name), f"{modname}.{name} listed but missing"


@pytest.mark.parametrize("modname", PACKAGES)
def test_no_duplicate_exports(modname):
    mod = importlib.import_module(modname)
    exported = list(getattr(mod, "__all__", []))
    assert len(exported) == len(set(exported)), f"{modname} duplicates"


@pytest.mark.parametrize("modname", [p for p in PACKAGES if p != "repro"])
def test_public_classes_and_functions_documented(modname):
    mod = importlib.import_module(modname)
    undocumented = []
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name)
        if callable(obj) and not (obj.__doc__ or "").strip():
            undocumented.append(name)
    assert not undocumented, f"{modname}: undocumented {undocumented}"


def test_api_doc_covers_every_package():
    with open(os.path.join(REPO, "docs", "API.md")) as fh:
        doc = fh.read()
    for modname in PACKAGES:
        assert f"## `{modname}`" in doc, modname


def test_api_doc_names_still_exported():
    """Every name the doc lists must still exist (regenerate docs/API.md
    after API changes; see the generator snippet in the doc header)."""
    with open(os.path.join(REPO, "docs", "API.md")) as fh:
        doc = fh.read()
    section = None
    missing = []
    for line in doc.splitlines():
        m = re.match(r"## `([\w.]+)`", line)
        if m:
            section = importlib.import_module(m.group(1))
            continue
        m = re.match(r"- `(?:class|def|const) (\w+)", line)
        if m and section is not None:
            if not hasattr(section, m.group(1)):
                missing.append(f"{section.__name__}.{m.group(1)}")
    assert not missing, missing
