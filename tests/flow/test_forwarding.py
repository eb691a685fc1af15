"""Regression: every knob the runner CLI forwards is accounted for.

The runner's ``run_artifacts(...)`` call is the repo's cache-soundness
chokepoint: a new CLI flag forwarded there without joining the cache
key (or carrying a reviewed sanction) is exactly the stale-result bug
the flow analyzer exists to catch.  This test extracts the forwarded
parameter names from the runner's AST and checks each against the
boundary account the analyzer derives — so adding ``--foo`` to the CLI
without keying or sanctioning ``foo`` fails here, not in production.
"""

import ast

from repro.flow.rules import build_flow_section

from .conftest import REPO_ROOT

RUNNER = REPO_ROOT / "src" / "repro" / "experiments" / "runner.py"


def _forwarded_params():
    """Parameter names the runner CLI passes into ``run_artifacts``."""
    tree = ast.parse(RUNNER.read_text(encoding="utf-8"))
    forwarded = None
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "run_artifacts":
            continue
        params = set()
        for position, _arg in enumerate(node.args):
            # Positional forwards map onto run_artifacts's signature.
            params.add(("positional", position))
        for keyword in node.keywords:
            if keyword.arg is not None:
                params.add(keyword.arg)
        forwarded = params
    assert forwarded, "runner no longer calls run_artifacts?"
    return forwarded


class TestRunnerForwarding:
    def test_call_site_found_with_expected_surface(self):
        forwarded = _forwarded_params()
        named = {p for p in forwarded if isinstance(p, str)}
        # The runner currently forwards one positional (experiment_id)
        # plus these keywords; extending the CLI extends this set.
        assert {"seed", "fast", "jobs", "cache", "policy"} <= named

    def test_every_forwarded_param_is_keyed_sanctioned_or_a_handle(
        self, src_reports
    ):
        report = src_reports["flow"]
        manifest = build_flow_section(report)
        boundary = manifest["cache_boundaries"][
            "repro.experiments.run_artifacts"
        ]
        accounted = set(boundary["key_params"])
        accounted |= set(boundary["sanctioned_params"])
        signature_params = list(
            report.context.project.modules["repro.experiments"]
            .functions["run_artifacts"]
            .params
        )
        handles = {p for p in signature_params if "cache" in p.lower()}
        accounted |= handles
        forwarded = set()
        for item in _forwarded_params():
            if isinstance(item, str):
                forwarded.add(item)
            else:
                forwarded.add(signature_params[item[1]])
        unaccounted = sorted(forwarded - accounted)
        assert unaccounted == [], (
            "runner CLI forwards parameter(s) the cache key does not "
            f"cover and no sanction acknowledges: {unaccounted}; either "
            "fold them into the key config in run_artifacts or add a "
            "reasoned `# repro-lint: disable=RPL401 ...` on the "
            "parameter's signature line"
        )

    def test_influence_analysis_sees_every_named_forward(self, src_reports):
        """Each forwarded knob must at least appear in run_artifacts's
        signature — a renamed/removed parameter means the regression
        test (and the CLI) drifted from the boundary."""
        report = src_reports["flow"]
        signature_params = set(
            report.context.project.modules["repro.experiments"]
            .functions["run_artifacts"]
            .params
        )
        named = {p for p in _forwarded_params() if isinstance(p, str)}
        assert named <= signature_params
