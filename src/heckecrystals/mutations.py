"""Fault-injection switches for the verification harness.

The exhaustive checkers are only trustworthy if they can detect a broken
operator.  Tests flip one of these named switches, rerun a checker at
small bounds, and require failures; production code paths only pay a set
lookup.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

FSTAR_NEIGHBOR_CASE_OFF = "fstar_neighbor_case_off"
FSVT_EXCEPTION_OFF = "fsvt_exception_off"
RES_INV_STACK_OFF = "res_inv_stack_off"
STAR_INSERT_RUN_CASE_OFF = "star_insert_run_case_off"
SVT_BRACKET_OFF = "svt_bracket_off"
UNBUMP_RUN_CASE_OFF = "unbump_run_case_off"
UNCROWD_BUMP_ROW_OFF = "uncrowd_bump_row_off"

_active: set[str] = set()


def enabled(name: str) -> bool:
    return name in _active


@contextmanager
def mutation(name: str) -> Iterator[None]:
    """Enable a single fault for the duration of a with-block."""
    _active.add(name)
    try:
        yield
    finally:
        _active.discard(name)
