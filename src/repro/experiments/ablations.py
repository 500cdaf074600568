"""Ablation studies for the design choices DESIGN.md calls out.

1. app-level vs account-level transfers (the paper's Table IV argument);
2. each simplification rule disabled individually;
3. pattern-threshold sweeps (Sec. VII: relaxed thresholds raise both
   detections and false positives);
4. inter-app merge tolerance sweep;
5. the yield-aggregator heuristic (Sec. VI-C).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..leishen.detector import LeiShen, LeiShenConfig
from ..leishen.registry import PatternSettings
from ..leishen.simplify import SimplifierConfig
from ..study.catalog import FLP_ATTACKS
from ..study.scenarios import SCENARIO_BUILDERS, ScenarioOutcome
from ..workload.generator import WildScanConfig, WildScanner

__all__ = ["AblationRow", "run_pipeline_ablation", "run_threshold_sweep", "render"]


@dataclass(frozen=True, slots=True)
class AblationRow:
    name: str
    detected: int
    total: int

    @property
    def recall(self) -> float:
        return self.detected / self.total if self.total else 0.0


def _detect_with(outcome: ScenarioOutcome, config: LeiShenConfig) -> bool:
    detector = LeiShen(outcome.world.chain, config)
    report = detector.analyze(outcome.trace)
    return report is not None and report.is_attack


def run_pipeline_ablation(keys: list[str] | None = None) -> list[AblationRow]:
    """Detection count over the known attacks for each pipeline variant."""
    metas = [m for m in FLP_ATTACKS if m.patterns and (keys is None or m.key in keys)]
    outcomes = [(m, SCENARIO_BUILDERS[m.key]()) for m in metas]

    def simplifier_for(outcome: ScenarioOutcome, **overrides) -> SimplifierConfig:
        return outcome.world.simplifier_config(**overrides)

    variants: list[tuple[str, object]] = [
        ("full pipeline", lambda o: LeiShenConfig(simplifier=simplifier_for(o))),
        (
            "account-level transfers",
            lambda o: LeiShenConfig(
                simplifier=simplifier_for(o), use_app_level_transfers=False
            ),
        ),
        (
            "no intra-app removal",
            lambda o: LeiShenConfig(simplifier=simplifier_for(o, remove_intra_app=False)),
        ),
        (
            "no WETH removal",
            lambda o: LeiShenConfig(simplifier=simplifier_for(o, remove_weth=False)),
        ),
        (
            "no inter-app merge",
            lambda o: LeiShenConfig(simplifier=simplifier_for(o, merge_inter_app=False)),
        ),
    ]
    rows: list[AblationRow] = []
    for name, make_config in variants:
        detected = sum(
            1 for _, outcome in outcomes if _detect_with(outcome, make_config(outcome))
        )
        rows.append(AblationRow(name=name, detected=detected, total=len(outcomes)))
    return rows


def run_threshold_sweep(scale: float = 0.02, seed: int = 7) -> list[tuple[str, int, int, float]]:
    """Sweep pattern thresholds on the wild scan: (variant, detected, TP, precision).

    Reproduces the paper's Sec. VII remark: relaxing thresholds (KRP buys
    5 -> 3, SBS volatility 28% -> 10%, MBS rounds 3 -> 2) increases
    detections and decreases precision.
    """
    krp = {"KRP": {"min_buys": 3}}
    sbs = {"SBS": {"min_volatility": 0.10}}
    mbs = {"MBS": {"min_rounds": 2}}
    sweeps = [
        ("paper thresholds", {}),
        ("relaxed KRP (3 buys)", krp),
        ("relaxed SBS (10% vol)", sbs),
        ("relaxed MBS (2 rounds)", mbs),
        ("all relaxed", {**krp, **sbs, **mbs}),
    ]
    results = []
    for name, params in sweeps:
        result = WildScanner(
            WildScanConfig(
                scale=scale, seed=seed,
                pattern_config=PatternSettings.make(params=params),
            )
        ).run()
        results.append(
            (name, result.detected_count, result.true_positives, result.precision)
        )
    return results


def render() -> str:
    lines = ["Ablation 1 — pipeline variants over the 17 patterned known attacks"]
    for row in run_pipeline_ablation():
        lines.append(f"  {row.name:<26}{row.detected:>3}/{row.total} ({row.recall:.0%})")
    lines.append("Ablation 2 — pattern-threshold sweep on the wild scan (scale 0.02)")
    for name, detected, tp, precision in run_threshold_sweep():
        lines.append(f"  {name:<26}detected={detected:<5}TP={tp:<5}precision={precision:.1%}")
    return "\n".join(lines)
