"""Property tests of the linter.

Two invariants:

* ``lint()`` never raises, whatever buildable tree it is handed — the
  never-fail analysis is pure graph reachability and every transient
  solve is guarded;
* a tree the linter has nothing to say about analyzes without a
  :class:`~repro.errors.ModelError` (``lint`` then ``analyze`` never
  stops a clean model).
"""

from hypothesis import given, settings

from repro.core.analyzer import AnalysisOptions, analyze
from repro.errors import ModelError
from repro.lint import LintConfig, Severity, lint
from tests.strategies import fault_trees, sd_fault_trees


class TestLintNeverRaises:
    @given(tree=fault_trees())
    def test_static_trees(self, tree):
        """Extreme probabilities (0 and 1 included) must not crash."""
        report = lint(tree)
        assert all(isinstance(d.code, str) for d in report.diagnostics)

    @given(tree=sd_fault_trees())
    def test_sd_trees(self, tree):
        report = lint(tree)
        report.render_text()
        report.to_json()

    @given(tree=sd_fault_trees())
    def test_with_policy_config(self, tree):
        config = LintConfig(
            horizon=8.0,
            cutoff=1e-9,
            disabled=frozenset({"SD103"}),
            severity_overrides={"SD201": Severity.ERROR},
        )
        lint(tree, config)


class TestCleanTreesAnalyze:
    @settings(max_examples=25)
    @given(tree=sd_fault_trees(max_static=2, max_dynamic=3, max_gates=4))
    def test_diagnostic_free_tree_analyzes(self, tree):
        options = AnalysisOptions(cutoff=1e-12)
        report = lint(
            tree, LintConfig(horizon=options.horizon, cutoff=options.cutoff)
        )
        if report.diagnostics:
            return  # the property only constrains diagnostic-free trees
        try:
            result = analyze(tree, options)
        except ModelError as error:  # pragma: no cover - the failure mode
            raise AssertionError(
                f"clean model rejected by analysis: {error}"
            ) from error
        assert result.failure_probability >= 0.0
