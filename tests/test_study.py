import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import elastoacoustic
from elastoacoustic import study
from elastoacoustic.config import RunConfig
from elastoacoustic.study import (ConvergenceTable, StudyError,
                                  extrapolate, fit_rate,
                                  run_uniform_study)

# printed reference rows for the open-vessel benchmark (Taylor-Hood and
# MINI families), used as fit-consistency oracles
O1_TH_M1 = ([8, 10, 12, 14], [443.7421, 443.5416, 443.4114, 443.3204],
            442.8549, 1.18)
O1_TH_M2 = ([8, 10, 12, 14], [1471.5727, 1471.1864, 1470.9341, 1470.7567],
            1469.8245, 1.15)
O1_MINI_M1 = ([8, 10, 12, 14], [452.4554, 449.4600, 447.7540, 446.6792],
              443.3200, 1.83)
O2_TH_M1 = ([10, 12, 14, 16], [399.6299, 399.4973, 399.4046, 399.3362],
            399.0376, 1.48)

# least-squares minimisers (omega*, t*) of the four rows, computed offline
# in 50-digit arithmetic (mpmath) from the printed decimals: the exact
# variable-projection residual of t, minimised by root-finding on its
# derivative
LSQ_MINIMISERS = [(O1_TH_M1, 442.8415427469146, 1.128650706534096),
                  (O1_TH_M2, 1469.795291867292, 1.098042257037803),
                  (O1_MINI_M1, 443.2400180021809, 1.760902901509587),
                  (O2_TH_M1, 398.9133319831777, 1.12205882479637)]


class TestFitRate:
    def test_exact_power_law(self):
        h = np.array([0.1, 0.05, 0.025])
        assert fit_rate(h, h ** 2) == pytest.approx(2.0, abs=1e-10)

    def test_constant_errors(self):
        h = np.array([0.1, 0.05, 0.025])
        assert fit_rate(h, np.ones(3)) == pytest.approx(0.0, abs=1e-12)

    def test_reference_mini_row(self):
        N = np.array(O1_MINI_M1[0], float)
        w = np.array(O1_MINI_M1[1])
        errs = np.abs(w ** 2 - O1_MINI_M1[2] ** 2)
        t = fit_rate(1.0 / N, errs)
        assert t == pytest.approx(1.83, abs=0.15)

    def test_invalid_inputs(self):
        with pytest.raises(StudyError):
            fit_rate([0.1, 0.05], [1.0, 2.0])
        with pytest.raises(StudyError):
            fit_rate([0.1, 0.05, -0.01], [1.0, 2.0, 3.0])
        with pytest.raises(StudyError):
            fit_rate([0.1, 0.05, 0.025], [1.0, 0.0, 2.0])


class TestExtrapolate:
    def test_exact_model_recovery(self):
        N = np.array([4, 8, 16, 32], float)
        w = 5.0 + 3.0 * N ** -2.0
        we, t, C = extrapolate(N, w)
        assert we == pytest.approx(5.0, abs=1e-9)
        assert t == pytest.approx(2.0, abs=1e-8)
        assert C == pytest.approx(3.0, rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.5, max_value=2.5),
           st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=1.0, max_value=5000.0))
    def test_recovers_synthetic_data(self, t_true, C, we_true):
        N = np.array([4.0, 6.0, 8.0, 12.0, 16.0])
        w = we_true + C * N ** -t_true
        we, t, _ = extrapolate(N, w)
        assert we == pytest.approx(we_true, rel=1e-4, abs=1e-6)
        assert t == pytest.approx(t_true, rel=1e-3, abs=1e-4)

    @pytest.mark.parametrize("row,tol_w,tol_t",
                             [(O1_TH_M1, 5e-4, 0.15),
                              (O1_TH_M2, 5e-4, 0.15),
                              (O1_MINI_M1, 5e-4, 0.15)])
    def test_reference_rows(self, row, tol_w, tol_t):
        N, w, we_ref, t_ref = row
        we, t, _ = extrapolate(N, w)
        assert we == pytest.approx(we_ref, rel=tol_w)
        assert t == pytest.approx(t_ref, abs=tol_t)

    def test_reentrant_reference_row_limit(self):
        # the printed order for the re-entrant configuration (1.48) is
        # not recoverable from the four printed values alone (they fit
        # t near 1.1); the extrapolated limit still lands within 0.05%
        N, w, we_ref, t_ref = O2_TH_M1
        we, t, _ = extrapolate(N, w)
        assert we == pytest.approx(we_ref, rel=5e-4)
        assert 1.0 <= t <= 1.6

    @pytest.mark.parametrize("row,we_ref,t_ref", LSQ_MINIMISERS)
    def test_reaches_the_least_squares_minimiser(self, row, we_ref, t_ref):
        we, t, _ = extrapolate(row[0], row[1])
        assert we == pytest.approx(we_ref, rel=1e-12)
        assert t == pytest.approx(t_ref, rel=1e-9)

    def test_few_linear_solves_per_fit(self, monkeypatch):
        calls = []
        fit_linear = study._fit_linear
        monkeypatch.setattr(study, "_fit_linear",
                            lambda *a: calls.append(1) or fit_linear(*a))
        for row, _, _ in LSQ_MINIMISERS:
            calls.clear()
            extrapolate(row[0], row[1])
            assert len(calls) <= 20

    def test_constant_column(self):
        assert extrapolate([2, 4, 6], [3.3, 3.3, 3.3]) == (3.3, 2.0, 0.0)

    def test_roundoff_column_keeps_the_start_order(self):
        # a C of roundoff size gives no information about t
        w = [1.0, 1.0, 1.0 + 2.0 ** -52, 1.0]
        we, t, C = extrapolate([8, 10, 12, 14], w)
        assert t == 2.0
        assert we == pytest.approx(1.0, abs=1e-15)
        assert abs(C) < 1e-13

    @pytest.mark.parametrize("N,w", [
        ([8, 10, 12], [5.0, 3.0, 4.0]),
        ([8, 10, 12, 14], [1.0, 3.0, 2.0, 4.0]),
        ([8, 10, 12, 14], [443.1, 443.3, 443.2, 443.25]),
        ([100, 200, 400], [5.0, 3.0, 4.0]),
        ([8, 10, 12, 14], [1.0, 2.0, 3.0, 4.0])])
    def test_column_that_is_not_monotone_decreasing(self, N, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = extrapolate(N, w)
        assert np.all(np.isfinite(fit))

    def test_import_and_fit_leave_scipy_optimize_unloaded(self):
        src = os.path.dirname(os.path.dirname(elastoacoustic.__file__))
        code = ("import sys, elastoacoustic\n"
                "elastoacoustic.extrapolate([2, 4, 6], [3.0, 2.0, 1.5])\n"
                "print(' '.join(m for m in ('scipy.optimize', "
                "'scipy.spatial', 'scipy.special') if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == []

    def test_invalid_inputs(self):
        with pytest.raises(StudyError):
            extrapolate([8, 10], [1.0, 2.0])
        with pytest.raises(StudyError):
            extrapolate([8, 10, 12], [1.0, -2.0, 3.0])
        with pytest.raises(StudyError):
            extrapolate([8, 10, 12], [3.0, np.nan, 1.0])


class TestUniformStudy:
    def test_empty_levels(self):
        cfg = RunConfig(levels=())
        table = run_uniform_study(cfg)
        assert table.levels == ()
        assert table.omegas == ()
        assert table.to_csv().startswith("N,dofs")

    @pytest.fixture(scope="class")
    def small_study(self):
        cfg = RunConfig(geometry="omega1", family="taylor-hood",
                        levels=(1, 2, 3), n_modes=2,
                        window=(400.0, 2800.0))
        return run_uniform_study(cfg)

    def test_monotone_from_above(self, small_study):
        for m in range(small_study.n_modes):
            col = small_study.mode_column(m)
            assert (np.diff(col) < 0).all()

    def test_orders_and_limits_present(self, small_study):
        assert len(small_study.orders) == 2
        assert len(small_study.extrapolated) == 2
        for we, col in zip(small_study.extrapolated,
                           np.array(small_study.omegas).T):
            assert we < col.min()

    def test_csv_deterministic(self, small_study):
        cfg = RunConfig(geometry="omega1", family="taylor-hood",
                        levels=(1, 2, 3), n_modes=2,
                        window=(400.0, 2800.0))
        again = run_uniform_study(cfg)
        assert again.to_csv() == small_study.to_csv()

    def test_solid_only_study_monotone(self):
        cfg = RunConfig(geometry="unit_square_solid", family="mini",
                        levels=(2, 3, 4), n_modes=2, nu=0.3,
                        window=(10000.0, 40000.0))
        table = run_uniform_study(cfg)
        for m in range(2):
            col = table.mode_column(m)
            assert (np.diff(col) < 0).all()

    def test_concurrent_matches_sequential(self):
        cfg = RunConfig(geometry="omega1", family="mini", levels=(1, 2),
                        n_modes=1, window=(400.0, 2800.0))
        seq = run_uniform_study(cfg)
        par = run_uniform_study(cfg.with_overrides(workers=2))
        assert seq.to_csv() == par.to_csv()
