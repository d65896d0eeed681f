import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_defect_scan_rows_match_curvature_prediction():
    rows = load_script("defect_scan").scan_rows([1.0, 2.0], [1.0], 1.0)
    assert [(radius, scale) for radius, scale, _, _ in rows] == [(1.0, 1.0), (2.0, 1.0)]
    for _, _, defect, prediction in rows:
        assert defect == pytest.approx(prediction, rel=1e-6)
