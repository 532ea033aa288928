"""Every public result record serializes through ``dataclasses.asdict``."""

from __future__ import annotations

import dataclasses
import json

import bountygame as bg
from bountygame import verification


def _baseline_records(params, curves, decision) -> list:
    profile = bg.equilibrium(params, decision, curves)
    ratio = bg.solve_ratio_equilibrium(params, decision, curves)
    return [
        params,
        curves,
        decision,
        bg.validate(params, curves),
        profile,
        bg.success_probabilities(params, decision, curves, profile),
        bg.profit_with_bbp(params, decision, curves),
        bg.condition1(params, curves, decision.t),
        bg.optimal_bounties(params, curves, decision.t),
        bg.optimal_release_no_bbp(params, curves),
        bg.optimal_release_with_bbp(params, curves),
        bg.optimal_whh_count(params, curves, decision.t),
        ratio,
        bg.ratio_sensitivities(params, decision, curves, ratio),
        bg.simulate(params, decision, curves, 100, 0, bg.SimMode.WITH_BBP),
        bg.SampledScenario(params, curves, decision),
        # A failing report, so its failures carry scenario records too.
        bg.identity_suite(bg.FeasibleSampler(27), 1),
    ]


def test_every_exported_record_serializes(monkeypatch, s0_params, s0_curves, s0_decision):
    monkeypatch.setattr(verification, "_NORMALIZATION_TOL", -1.0)
    exported = {
        obj
        for obj in (getattr(bg, name) for name in bg.__all__)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    }
    records = _baseline_records(s0_params, s0_curves, s0_decision)
    assert {type(record) for record in records} == exported
    assert records[-1].failures
    for record in records:
        decoded = json.loads(json.dumps(dataclasses.asdict(record)))
        assert set(decoded) == {f.name for f in dataclasses.fields(record)}
        if isinstance(record, bg.EffortProfile):
            assert decoded["regime"] == "corner"
