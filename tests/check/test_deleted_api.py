"""Deleted API stays deleted.

The DES resource primitives (``Resource``/``Store``) had no user in the
package, and the waterline memo of the LF cut almost never hit on real
traffic; both were removed.  These guards keep them from creeping back
unnoticed.
"""

from __future__ import annotations

import pkgutil

import pytest

import repro.core.cutting
import repro.sim


@pytest.mark.parametrize("name", ["Resource", "Store"])
def test_sim_does_not_expose_resource_primitives(name):
    assert not hasattr(repro.sim, name)
    assert name not in repro.sim.__all__


def test_sim_has_no_resources_module():
    modules = {m.name for m in pkgutil.iter_modules(repro.sim.__path__)}
    assert "resources" not in modules


def test_cutting_exposes_no_memo():
    assert repro.core.cutting.__all__ == ["lf_cut_waterline", "lf_cut_stepwise"]
    assert not [name for name in dir(repro.core.cutting) if name.endswith("Memo")]
