"""The numbers stay the same: two small sweeps and the spotform command.

scripts/same_numbers.py wrote the files under data/same_numbers; this test
reruns it and compares.  Rows, statuses and failure reasons must match
exactly, and every *_db column to within TOL_DB, so that another BLAS build
does not trip it while any real change in the numbers does.
"""

import csv
import importlib.util
import math
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data" / "same_numbers"
SCRIPT = Path(__file__).parents[1] / "scripts" / "same_numbers.py"
TOL_DB = 1e-6

_spec = importlib.util.spec_from_file_location("same_numbers", SCRIPT)
same_numbers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_numbers)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("same_numbers")
    same_numbers.generate(out, tmp_path_factory.mktemp("work"))
    return out


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    """(comment lines, CSV rows with the header first)."""
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    return comments, list(csv.reader(line for line in lines
                                     if not line.startswith("#")))


def _same(column: str, want: str, got: str) -> bool:
    if not column.endswith("_db") or "nan" in (want, got):
        return want == got
    # 6-decimal CSVs can round a difference below TOL_DB up to one unit
    return math.isclose(float(want), float(got), rel_tol=0.0,
                        abs_tol=TOL_DB * (1 + 1e-9))


@pytest.mark.parametrize("sweep", sorted(same_numbers.SWEEPS))
@pytest.mark.parametrize("name", same_numbers.FILES)
def test_outputs_match_the_checked_in_numbers(fresh, sweep, name):
    want_comments, want = _read(DATA / sweep / name)
    got_comments, got = _read(fresh / sweep / name)
    assert got_comments == want_comments
    header = want[0]
    assert got[0] == header
    # the row set: every column that is not a score
    keys = [c for c in header if not c.endswith("_db")]

    def key_rows(rows):
        return [[v for c, v in zip(header, r) if c in keys] for r in rows[1:]]

    assert key_rows(got) == key_rows(want)
    for w, g in zip(want[1:], got[1:]):
        bad = [f"{c}: {wv} -> {gv}" for c, wv, gv in zip(header, w, g)
               if not _same(c, wv, gv)]
        assert not bad, f"{sweep}/{name} row {w}: {'; '.join(bad)}"
