"""The shipped configs at 5 replicates give byte-identical results CSVs.

``tests/golden/<name>.csv`` is the results CSV of ``configs/<name>.ini``
with ``n_replicates = 5``, all its p values in order.  A change that is
meant to move the results regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from pelhd import load_experiment_configs, rows_to_csv, run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_REPLICATES = 5
NAMES = sorted(path.stem for path in (ROOT / "configs").glob("*.ini"))


def results_csv(name: str) -> str:
    text = (ROOT / "configs" / f"{name}.ini").read_text()
    rows = []
    for cfg in load_experiment_configs(text):
        rows += run_experiment(replace(cfg, n_replicates=GOLDEN_REPLICATES))
    return rows_to_csv(rows)


def write_golden() -> None:
    for name in NAMES:
        (GOLDEN / f"{name}.csv").write_text(results_csv(name))


def test_every_config_has_a_golden_file():
    assert NAMES
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_results_match_golden(name):
    assert results_csv(name) == (GOLDEN / f"{name}.csv").read_text()


if __name__ == "__main__":
    write_golden()
