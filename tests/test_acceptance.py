"""Acceptance criteria c1-c8 and the chain-TV check, each printing a PASS line.

The checks themselves live in polyspin.verify, which `polyspin verify`
runs too; see that module for what each criterion asserts.
"""

from __future__ import annotations

import pytest

from polyspin import verify


@pytest.mark.parametrize("check", verify.FULL, ids=lambda f: f.__name__.replace("_", "-"))
def test_acceptance(check):
    name, ok, detail = check()
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"
