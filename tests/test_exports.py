"""Every exported name exists, so a removed class cannot linger in an ``__all__``.

The package itself exports exactly the names README's "Library" section
documents; everything else is imported from its own module.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import citeforge

MODULES = ["citeforge"] + [
    f"citeforge.{info.name}" for info in pkgutil.iter_modules(citeforge.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


PUBLIC = [
    "Alignment",
    "AuxCorruptError",
    "AuxFormatError",
    "BibItem",
    "Bibliography",
    "CiteWarning",
    "CiteforgeError",
    "Dimension",
    "DirectoryFiles",
    "FileAccess",
    "FixpointResult",
    "JobConfig",
    "LayoutParams",
    "MacroError",
    "MacroRecursionError",
    "MemoryFiles",
    "PassResult",
    "RenderedFragment",
    "ScanError",
    "Span",
    "StructureError",
    "Style",
    "UnbalancedGroupError",
    "build_report",
    "process_bbl",
    "render_annotated",
    "render_plain",
    "report_json",
    "run_pass",
    "run_to_fixpoint",
]


def test_package_exports_exactly_the_documented_names():
    assert citeforge.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_export_is_in_the_readme(name):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert re.search(rf"\b{name}\b", library)
