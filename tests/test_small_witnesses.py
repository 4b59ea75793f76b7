"""The SMALL-bound report of every check, clean and under each fault, pinned.

``data/small_witnesses.json`` holds, per ``"<check> <fault>"`` (``clean``
for no fault), the instance count and the full failure list.  A refactor of
a check or an operator must leave all of them equal.  Regenerate the file
only when a change of results is intended:

    PYTHONPATH=src python tests/test_small_witnesses.py --write
"""

import json
import sys
from pathlib import Path

from heckecrystals import mutations
from heckecrystals.verification import check_theorem
from test_verification import SMALL

FIXTURE = Path(__file__).parent / "data" / "small_witnesses.json"
FAULTS = ("clean", mutations.FSTAR_NEIGHBOR_CASE_OFF, mutations.FSVT_EXCEPTION_OFF,
          mutations.STAR_INSERT_RUN_CASE_OFF, mutations.SVT_BRACKET_OFF,
          mutations.UNCROWD_BUMP_ROW_OFF, mutations.UNBUMP_RUN_CASE_OFF,
          mutations.RES_INV_STACK_OFF)


def _report(name, fault):
    if fault == "clean":
        r = check_theorem(name, SMALL[name])
    else:
        with mutations.mutation(fault):
            r = check_theorem(name, SMALL[name])
    return {"instances": r.instances, "failures": r.failures}


def _reports():
    return {f"{name} {fault}": _report(name, fault)
            for name in sorted(SMALL) for fault in FAULTS}


def test_small_bound_reports_match_the_fixture():
    expected = json.loads(FIXTURE.read_text())
    got = _reports()
    assert len(got) == len(expected) == 128
    assert [k for k in got if got[k] != expected.get(k)] == []


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_reports(), indent=1, ensure_ascii=False) + "\n")
