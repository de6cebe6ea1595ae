"""Every lookup site of the benchmark's span tracer still names a function.

``perfbench/tracing.py`` wraps program functions at the module attributes
where callers look them up, and skips a site that no longer exists.  A
refactor that renames or moves such a function would silently drop its span
and the per-layer metrics derived from it; this test makes that a failure.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_site_resolves():
    tracing = _load_tracing()
    missing = [f"{span}: {site}" for span, sites in tracing.SITES.items()
               for site in sites if tracing._resolve(site) is None]
    assert not missing, f"tracer sites that no longer resolve: {missing}"
