"""Every test starts with the engine's functools caches empty.

Batch mode keeps verdict lines and each table row's serialized answers,
`decide` its table rows and the CLI its argument parser, in module-level
caches; clearing them before each test keeps results independent of the
order the tests run in.
"""

import importlib
import pkgutil

import pytest

import infsurf


def _functools_caches() -> list:
    """Every ``lru_cache``/``cache`` function at module or class level in an
    ``infsurf`` module (``__main__`` runs the CLI when imported)."""
    found = {}
    for info in pkgutil.iter_modules(infsurf.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"infsurf.{info.name}")
        for obj in vars(module).values():
            members = (obj, *vars(obj).values()) if isinstance(obj, type) else (obj,)
            for f in members:
                if hasattr(f, "cache_info") and hasattr(f, "cache_clear"):
                    found[id(f)] = f
    return list(found.values())


@pytest.fixture(scope="session")
def functools_caches() -> list:
    return _functools_caches()


@pytest.fixture(autouse=True)
def _empty_caches(functools_caches):
    for f in functools_caches:
        f.cache_clear()
