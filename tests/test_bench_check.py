"""``repro bench --check``: the translate-time regression gate."""

from repro.bench import check_report


class TestTranslateRegressionGate:
    def report(self, translate, mode="quick", stage="condition"):
        return {
            "mode": mode,
            "stage": stage,
            "summary": {
                "jit_speedup_over_interp": 5.0,
                "mean_translate_seconds": translate,
            },
        }

    def test_regression_fails(self):
        current = self.report({"jit": 0.08})
        baseline = self.report({"jit": 0.02})
        ok, message = check_report(current, baseline=baseline)
        assert not ok and "translate time regressed" in message

    def test_within_slack_passes(self):
        ok, message = check_report(
            self.report({"jit": 0.022}), baseline=self.report({"jit": 0.020})
        )
        assert ok and "within slack" in message

    def test_mode_mismatch_skips_gate(self):
        ok, message = check_report(
            self.report({"jit": 0.9}),
            baseline=self.report({"jit": 0.02}, mode="full"),
        )
        assert ok and "skipped" in message

    def test_noise_floor_not_gated(self):
        ok, _ = check_report(
            self.report({"jit": 0.005}), baseline=self.report({"jit": 0.001})
        )
        assert ok

    def test_no_baseline_keeps_old_behaviour(self):
        ok, message = check_report(self.report({"jit": 0.08}))
        assert ok and "jit is" in message
