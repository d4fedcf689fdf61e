"""Acceptance suite: one test per exit criterion.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
quantities, then asserts at the stated tolerance. Run with `pytest -s
tests/test_acceptance.py` to see the lines as they print.
"""

import dataclasses
import time

import numpy as np
import pytest
import sympy

from conftest import bp_dual_certificate, loglog_slope
from sasc.baselines import BaselineConfig, run_spp
from sasc.cli import cli_main
from sasc.core import (
    Case,
    SascConfig,
    bound_curves,
    rate_constants,
    run_sasc,
    schedule_inequalities_check,
    schedule_params,
)
from sasc.problems import (
    LabeledSparseDataset,
    auto_alpha0,
    gen_basis_pursuit,
    gen_separable_svm,
    make_bp_problem,
    make_svm_problem,
)
from sasc.prox import BoxSet, l1_prox
from sasc.smoothing import (
    CertificateInputs,
    feasibility_metric,
    saddle_point_residuals,
    moreau_grad,
)
from sasc.trace_io import TRACE_HEADER, parse_libsvm, read_trace_csv, serialize_libsvm

BP_SEEDS = (0, 1, 2, 3, 4)


def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _feasibility_bound(cfg, problem, cert, m_values):
    """The paper's general-convex feasibility bound after M total samples."""
    return np.array([feas for _, feas in bound_curves(
        cfg, problem.norm_bound, cert, np.zeros(problem.dim), m_values)])


@pytest.fixture(scope="module")
def bp_runs():
    """The five scaled sparse-recovery runs shared by criteria 5, 6 and 8.

    Each run also keeps its epoch outputs x_bar^s, recorded through the step
    callback at the last step of each epoch, with their exact feasibility
    and the paper's bound at the same sample count M_s.
    """
    runs = {}
    t0 = time.perf_counter()
    for seed in BP_SEEDS:
        inst = gen_basis_pursuit(d=50, n=20_000, sparsity=5, rho=0.9,
                                 seed=seed)
        prob = make_bp_problem(inst)
        _, cert = bp_dual_certificate(inst)
        cfg = SascConfig(alpha0=auto_alpha0(inst), omega=2.0, m0=2,
                         case=Case.GENERAL_CONVEX, sample_budget=40_000,
                         seed=seed, checkpoint_every=256, eval_samples=2000)
        ends = []

        def at_epoch_end(st):
            if st.k == st.m_s:
                ends.append((st.samples_seen, st.running_avg))

        x_bar, trace = run_sasc(prob, cfg, cert=cert, callback=at_epoch_end)
        epoch_samples = np.array([m for m, _ in ends])
        runs[seed] = {
            "instance": inst, "problem": prob, "cfg": cfg, "cert": cert,
            "x_bar": x_bar, "trace": trace,
            "rel_err": float(np.linalg.norm(x_bar - inst.x_star)
                             / np.linalg.norm(inst.x_star)),
            "feas": feasibility_metric(x_bar, prob.constraints, 20_000, 0),
            "epoch_samples": epoch_samples,
            "epoch_feas": np.array([
                feasibility_metric(xb, prob.constraints, 20_000, 0)
                for _, xb in ends]),
            "epoch_bound": _feasibility_bound(cfg, prob, cert, epoch_samples),
        }
    runs["elapsed"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="module")
def bp_spp_trace(bp_runs):
    """The fixed-step comparator on seed 0, run to the solver's budget."""
    run = bp_runs[0]
    bcfg = BaselineConfig("spp", step=1e-3,
                          iterations=int(run["epoch_samples"][-1]), seed=0,
                          checkpoint_every=256, eval_samples=2000)
    return run_spp(run["problem"], bcfg)[1]


def test_c01_saddle_point_residual_suite(min_norm_toy):
    problem, cert = min_norm_toy
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = np.inf
    for _ in range(1000):
        x = rng.uniform(-5.0, 5.0, size=2)
        beta = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        worst = min(worst, min(saddle_point_residuals(x, beta, problem, cert, 1, 0)))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-9 and elapsed < 1.0
    assert _report(1, ok,
                   f"worst residual slack {worst:.3e} over 1000 draws "
                   f"({elapsed:.2f}s)")


def test_c02_schedule_inequality_suite():
    t0 = time.perf_counter()
    worst = np.inf
    for m0 in (2, 4, 8):
        for omega in (1.2, 2.0, 4.0):
            for alpha0 in (0.1, 1.0):
                for case in Case:
                    cfg = SascConfig(alpha0=alpha0, omega=omega, m0=m0,
                                     case=case, epochs=1)
                    slacks = schedule_inequalities_check(cfg, 1.0, 40)
                    worst = min(worst, min(slacks.values()))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-9 and elapsed < 1.0
    assert _report(2, ok,
                   f"worst schedule slack {worst:.3e} over the parameter grid "
                   f"({elapsed:.2f}s)")


def test_c03_smoothed_gradient_check():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_rel = 0.0
    cases = [
        ("singleton", BoxSet(0.7, 0.7), []),
        ("interval", BoxSet(-0.2, 0.2), [-0.2, 0.2]),
        ("halfspace", BoxSet(1.0, np.inf), [1.0]),
        ("generic prox", l1_prox(1.0), None),  # kinks depend on beta
    ]
    for _, inner, kinks in cases:
        done = 0
        while done < 100:
            z = float(rng.uniform(-4, 4))
            beta = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
            kk = [-beta, beta] if kinks is None else kinks
            if any(abs(z - k) < 1e-3 for k in kk):
                continue
            v, g = moreau_grad(np.array([z]), inner, beta)
            if abs(g[0]) < 0.1:
                continue
            h = 1e-6
            vp, _ = moreau_grad(np.array([z + h]), inner, beta)
            vm, _ = moreau_grad(np.array([z - h]), inner, beta)
            worst_rel = max(worst_rel, abs((vp - vm) / (2 * h) - g[0])
                            / abs(g[0]))
            done += 1
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-5 and elapsed < 1.0
    assert _report(3, ok,
                   f"worst relative gradient error {worst_rel:.3e} over 100 "
                   f"non-kink points per set type ({elapsed:.2f}s)")


def test_c04_constants_cross_check():
    def sym1(a0, m0, w, A, Y, S, R):
        a0, m0, w, A, Y, S, R = map(sympy.Rational, map(str,
                                                        (a0, m0, w, A, Y, S, R)))
        return [float(sympy.N(v, 30)) for v in (
            sympy.sqrt(m0 * w) / (a0 * (m0 - 1) * sympy.sqrt(w - 1)),
            R ** 2 / 2 + 2 * a0 * m0 * S ** 2,
            2 * a0 ** 2 * A ** 2 * m0 * Y ** 2 + 2 * a0 * m0 * S ** 2,
            4 * a0 * sympy.sqrt(m0) * A ** 2 * sympy.sqrt(w)
            / sympy.sqrt(w - 1))]

    def sym2(a0, m0, w, A, Y, S, R):
        a0, m0, w, A, Y, S, R = map(sympy.Rational, map(str,
                                                        (a0, m0, w, A, Y, S, R)))
        return [float(sympy.N(v, 30)) for v in (
            (w / (w - 1)) * (m0 / (a0 * (m0 - 1))) * R ** 2 / 2
            + 2 * a0 * m0 * (w / (w - 1)) * S ** 2,
            (2 * m0 ** 2 * a0 * w / ((m0 - 1) * (w - 1)))
            * (A ** 2 * Y ** 2 + S ** 2),
            4 * a0 * m0 * A ** 2 * w / (w - 1))]

    worked = [
        (1.0, 2, 2.0, 1.0, 0.0, 0.0, 0.0),
        (0.5, 4, 2.0, 1.0, 1.0, 1.0, 0.0),
        (0.8, 3, 1.5, 1.3, 0.7, 0.4, 2.0),
    ]
    worst = 0.0
    for a0, m0, w, A, Y, S, R in worked:
        cert = CertificateInputs(x_star=np.array([R, 0.0]), y_star_norm=Y,
                                 sigma_f=S)
        cfg = SascConfig(alpha0=a0, omega=w, m0=m0, epochs=1)
        got1 = np.array(rate_constants(cfg, A, cert, np.zeros(2)))
        ref1 = np.array(sym1(a0, m0, w, A, Y, S, R))
        got2 = np.array(rate_constants(
            dataclasses.replace(cfg, case=Case.RESTRICTED_STRONGLY_CONVEX),
            A, cert, np.zeros(2)))
        ref2 = np.array(sym2(a0, m0, w, A, Y, S, R))
        for got, ref in ((got1, ref1), (got2, ref2)):
            nz = ref != 0
            worst = max(worst, float(np.max(
                np.abs(got[nz] - ref[nz]) / np.abs(ref[nz]))))
            assert np.array_equal(got[~nz], ref[~nz])
    ok = worst <= 1e-12
    assert _report(4, ok,
                   f"worst relative deviation from the symbolic evaluation "
                   f"{worst:.3e}")


def test_c05_sparse_recovery(bp_runs):
    good = [s for s in BP_SEEDS
            if bp_runs[s]["rel_err"] <= 0.1 and bp_runs[s]["feas"] <= 0.05]
    detail = ", ".join(
        f"seed {s}: rel {bp_runs[s]['rel_err']:.3g} feas "
        f"{bp_runs[s]['feas']:.3g}" for s in BP_SEEDS)
    ok = len(good) >= 4 and bp_runs["elapsed"] < 30.0
    assert _report(5, ok,
                   f"{len(good)}/5 seeds within tolerance "
                   f"({bp_runs['elapsed']:.1f}s) [{detail}]")


def _c06_holds(slopes, worst_ratio):
    """Feasibility decays at least theory-shaped and within the paper's bound.

    The median log-log slope must be <= -0.30, and no epoch output may
    exceed the paper's bound. The bound caps feasibility from above only: an
    instance whose constraints pin x* down may decay much faster than
    log(M)/sqrt(M), so the slope has no lower edge.
    """
    return float(np.median(slopes)) <= -0.30 and worst_ratio <= 1.0


def test_c06_general_convex_rate_shape(bp_runs):
    slopes = []
    for s in BP_SEEDS:
        tr = bp_runs[s]["trace"]
        slopes.append(loglog_slope(tr.column("samples"),
                                   tr.column("feasibility")))
    ratios = [float(np.max(bp_runs[s]["epoch_feas"]
                           / bp_runs[s]["epoch_bound"])) for s in BP_SEEDS]
    med = float(np.median(slopes))
    ok = _c06_holds(slopes, max(ratios))
    assert _report(
        6, ok,
        f"median feasibility slope {med:.3f} (per-seed "
        f"{[round(v, 3) for v in slopes]}), required <= -0.30; worst "
        f"epoch-output feasibility / bound {max(ratios):.3f} (per-seed "
        f"{[round(v, 3) for v in ratios]}), required <= 1")


def test_c07_strongly_convex_rate_shape():
    t0 = time.perf_counter()
    slopes = []
    for seed in (0, 1, 2):
        ds = gen_separable_svm(d=20, n=2000, margin=2.0, seed=seed)
        prob = make_svm_problem(ds)
        cfg = SascConfig(alpha0=0.5, omega=2.0, m0=4,
                         case=Case.RESTRICTED_STRONGLY_CONVEX,
                         sample_budget=33_000, seed=seed,
                         checkpoint_every=128, eval_samples=2000)
        _, trace = run_sasc(prob, cfg)
        slopes.append(loglog_slope(trace.column("samples"),
                                   trace.column("feasibility")))
    elapsed = time.perf_counter() - t0
    med = float(np.median(slopes))
    ok = -1.4 <= med <= -0.6 and elapsed < 30.0
    assert _report(
        7, ok,
        f"median feasibility slope {med:.3f} (per-seed "
        f"{[round(v, 3) for v in slopes]}), required [-1.4, -0.6] "
        f"({elapsed:.1f}s)")


def _window_gain(samples, feas, m_from, m_to):
    """Feasibility at the first record at or after m_from over that at m_to."""
    i, j = np.searchsorted(samples, [m_from, m_to])
    return float(feas[i] / feas[j])


def _c08_holds(fixed_step_gain, homotopy_gain):
    """The fixed-step baseline stagnates while the homotopy solver improves.

    Both gains are taken over the last two epochs, M_{S-2} to M_S: within
    one epoch alpha and beta are fixed by design, and the paper's own bound
    falls by 2x only across two (omega = 2).
    """
    return fixed_step_gain < 2.0 and homotopy_gain > 4.0


def test_c08_fixed_step_stagnation_contrast(bp_runs, bp_spp_trace):
    run = bp_runs[0]
    m_from, m_to = run["epoch_samples"][[-3, -1]]
    spp_gain = _window_gain(bp_spp_trace.column("samples"),
                            bp_spp_trace.column("feasibility"), m_from, m_to)
    sasc_gain = _window_gain(run["epoch_samples"], run["epoch_feas"],
                             m_from, m_to)
    ok = _c08_holds(spp_gain, sasc_gain)
    assert _report(
        8, ok,
        f"improvement over the last two epochs (M {m_from} to {m_to}): "
        f"fixed-step baseline {spp_gain:.2f}x (need < 2x), homotopy solver "
        f"{sasc_gain:.2f}x (need > 4x)")


def test_c06_c08_reject_stagnating_runs(bp_runs, bp_spp_trace):
    """Negative control: both criteria fail on runs that do not converge.

    The stagnating runs stay inside the paper's bound, so what rejects them
    is the slope edge of criterion 6 and the gain threshold of criterion 8.
    """
    run = bp_runs[0]
    prob, cert = run["problem"], run["cert"]
    m_from, m_to = run["epoch_samples"][[-3, -1]]
    sam = bp_spp_trace.column("samples")
    fe = bp_spp_trace.column("feasibility")
    spp = (loglog_slope(sam, fe),
           float(np.max(fe / _feasibility_bound(run["cfg"], prob, cert, sam))),
           _window_gain(sam, fe, m_from, m_to))

    # one epoch over the whole budget: alpha and beta stay frozen
    one_cfg = dataclasses.replace(run["cfg"], m0=int(m_to), epochs=1,
                                  sample_budget=None)
    x_bar, trace = run_sasc(prob, one_cfg, cert=cert)
    sam = trace.column("samples")
    fe = trace.column("feasibility")
    one = (loglog_slope(sam, fe),
           feasibility_metric(x_bar, prob.constraints, 20_000, 0)
           / _feasibility_bound(one_cfg, prob, cert, [m_to])[0],
           _window_gain(sam, fe, m_from, m_to))

    for name, (slope, ratio, gain) in (("spp", spp), ("one-epoch sasc", one)):
        detail = (f"{name}: slope {slope:.3f}, bound ratio {ratio:.3f}, "
                  f"gain {gain:.2f}x")
        assert ratio <= 1.0, detail
        assert not _c06_holds([slope], ratio), detail
        assert not _c08_holds(spp[2], gain), detail


def test_c09_deterministic_penalty_equivalence(min_norm_toy):
    problem, _ = min_norm_toy
    a = problem.constraints.sample(0).row
    iterates = []
    cfg = SascConfig(alpha0=0.5, omega=2.0, m0=100, epochs=1, seed=0,
                     checkpoint_every=10 ** 6, eval_samples=1)
    run_sasc(problem, cfg, callback=lambda st: iterates.append(st.x))
    alpha, beta, _ = schedule_params(cfg, 0, problem.norm_bound)
    x = np.zeros(2)
    worst = 0.0
    for k in range(100):
        x = x - alpha * (x + a * ((a @ x - 1.0) / beta))
        worst = max(worst, float(np.linalg.norm(x - iterates[k])))
    ok = worst <= 1e-12
    assert _report(9, ok,
                   f"max deviation from the hand-rolled penalty loop "
                   f"{worst:.3e} over 100 steps")


def test_c10_io_round_trip_and_cli(tmp_path):
    # libsvm round trip on a 1000-line fixture
    rng = np.random.default_rng(2)
    idx_lists, val_lists, labels = [], [], []
    for _ in range(1000):
        k = int(rng.integers(0, 8))
        idx_lists.append(np.sort(rng.choice(64, size=k, replace=False)))
        val_lists.append(rng.standard_normal(k))
        labels.append(float(rng.choice([-1.0, 1.0])))
    ds = LabeledSparseDataset.from_rows(idx_lists, val_lists, np.array(labels),
                                        dim=64)
    path = tmp_path / "fixture.libsvm"
    serialize_libsvm(ds, path)
    back = parse_libsvm(path, dim=64)
    rt_ok = (np.array_equal(back.labels, ds.labels)
             and all(np.array_equal(back.row(i)[0], ds.row(i)[0])
                     for i in range(len(ds)))
             and all(np.array_equal(back.row(i)[1], ds.row(i)[1])
                     for i in range(len(ds))))

    # end-to-end CLI smoke for every subcommand
    svm_data = tmp_path / "svm.libsvm"
    serialize_libsvm(gen_separable_svm(4, 60, margin=1.0, seed=6), svm_data)
    bp_out = tmp_path / "bp.csv"
    runs = [
        ["bp", "--d", "10", "--n", "300", "--sparsity", "2", "--budget",
         "600", "--checkpoint-every", "100", "--validation-samples", "50",
         "--out", str(bp_out)],
        ["portfolio", "--budget", "400", "--checkpoint-every", "100",
         "--validation-samples", "50", "--out", str(tmp_path / "pf.csv")],
        ["svm", "--data", str(svm_data), "--budget", "240",
         "--checkpoint-every", "60", "--validation-samples", "30",
         "--out", str(tmp_path / "svm.csv")],
        ["check", "--case", "1", "--m0", "2", "--omega", "2", "--alpha0",
         "1", "--smax", "40", "--residual-draws", "100"],
        ["bounds", "--case", "2", "--alpha0", "0.5", "--m0", "4", "--omega",
         "2", "--y-star-norm", "1", "--m-max", "1024",
         "--out", str(tmp_path / "bounds.csv")],
    ]
    codes = [cli_main(args) for args in runs]

    # the emitted trace is well-formed: exact header, one row per checkpoint
    lines = bp_out.read_text().splitlines()
    cfg = SascConfig(alpha0=1.0, omega=2.0, m0=2, sample_budget=600)
    total = sum(schedule_params(cfg, s, 1.0)[2]
                for s in range(cfg.planned_epochs()))
    expected_rows = total // 100 + (1 if total % 100 else 0)
    csv_ok = (lines[0] == TRACE_HEADER
              and len(lines) - 1 == expected_rows
              and len(read_trace_csv(bp_out).records) == expected_rows)

    ok = rt_ok and all(c == 0 for c in codes) and csv_ok
    assert _report(
        10, ok,
        f"round-trip identity {rt_ok}, subcommand exits {codes}, "
        f"trace rows {len(lines) - 1} (expected {expected_rows})")
