"""The comparison tools under tools/ read every output they are given."""

import importlib.util
from pathlib import Path

CLI_EQUIVALENCE = Path(__file__).resolve().parents[1] / "tools" / "cli_equivalence.py"


def _cli_equivalence():
    spec = importlib.util.spec_from_file_location("_cli_equivalence", CLI_EQUIVALENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_leaves_reads_a_csv_field_over_128_kib():
    # the csv module refuses fields over 128 KiB by default, which ended a
    # comparison in a traceback instead of a report
    field = "x" * 200000
    leaves = _cli_equivalence()._leaves("a,b\r\n1," + field + "\r\n", True)
    assert list(leaves) == [("a", 1.0), ("b", field)]
