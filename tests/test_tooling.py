"""Repository tooling stays in step with the package: the generated config
reference, the names the benchmark tracer wraps, and the scripts' imports."""
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script(relative):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_config_reference_is_current():
    gen = load_script("scripts/gen_config_reference.py")
    committed = (ROOT / "docs" / "config_reference.md").read_text(encoding="utf-8")
    assert committed == gen.render(), \
        "docs/config_reference.md is stale: run scripts/gen_config_reference.py"


def test_scripts_import():
    # each script's main() runs only under __main__, so loading runs its imports
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    for path in scripts:
        assert callable(load_script(path.relative_to(ROOT)).main), path.name


TRACER = load_script("perfbench/tracer.py")


def test_tracer_names_exist():
    # perfbench's install() fails on any name that is gone from the package
    missing = [f"{module}.{name}" for module, name, _ in TRACER.LAYER_FUNCTIONS
               if not callable(getattr(importlib.import_module(f"crowdaug.{module}"),
                                       name, None))]
    for module, cls, method, _ in TRACER.LAYER_METHODS:
        owner = getattr(importlib.import_module(f"crowdaug.{module}"), cls, None)
        if not callable(getattr(owner, method, None)):
            missing.append(f"{module}.{cls}.{method}")
    dc = importlib.import_module("crowdaug.diffcore")
    missing += [f"diffcore.{op}" for op in TRACER.NAMED_OPS + TRACER.OTHER_OPS
                if not callable(getattr(dc, op, None))]
    assert missing == []
