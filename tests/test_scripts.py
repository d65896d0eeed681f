import importlib.util
import re
from pathlib import Path

import numpy as np
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


def test_run_all_writes_the_same_reports_as_single_runs(tmp_path, capsys, reports):
    # Two independent runs of every experiment must agree byte for byte,
    # apart from the JSON timestamp line.
    single, batch = tmp_path / "single", tmp_path / "batch"
    for report in reports.values():
        report.write(single)
    assert load_script("run_all").main(["--out", str(batch)]) == 0
    assert "50/50 checks passed" in capsys.readouterr().out
    written = sorted(path.name for path in batch.iterdir())
    assert written == sorted(path.name for path in single.iterdir())
    for name in written:
        want, got = ((d / name).read_bytes() for d in (single, batch))
        if name.endswith(".json"):
            want, got = (re.sub(rb'"timestamp": "[^"]*"', b"", text) for text in (want, got))
        assert got == want, name


def test_tabulate_rules_lists_exactly_the_tabulated_sizes():
    # the script writes the sizes bases reads, and the stored table holds
    # exactly their halves, so no offset runs past a rule or leaves columns over
    from phasequant import bases

    assert load_script("tabulate_rules").RULE_SIZES is bases.RULE_SIZES
    halves = [(n + 1) // 2 for sizes in bases.RULE_SIZES.values() for n in sizes]
    assert np.load(bases.RULE_TABLE).shape == (2, sum(halves))
    assert [half.shape[1] for half in bases._rule_table().values()] == halves
