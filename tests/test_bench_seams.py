"""The benchmark's tracer finds every name it wraps.

``bench/tracer.py`` wraps package names by module and attribute; a seam that
no longer exists is reported as absent and its per-layer metrics read 0.  This
loads the tracer by path, without installing it, and checks each seam.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from knows_sidecar import consumer, model, serialization

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _tracer().SEAMS])
def test_seam_exists(module, attr):
    assert hasattr(importlib.import_module(f"knows_sidecar.{module}"), attr)


def test_class_and_default_seams_exist():
    assert callable(model.KnowsRecord.entity_index)
    assert consumer.consume.__kwdefaults__["composer"] is consumer.reference_composer
    assert callable(consumer.SidecarCache.get_latest)
    assert callable(consumer.page_file_provider)
    assert hasattr(serialization, "yaml")
