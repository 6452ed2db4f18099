"""Acceptance checklist: one test and one printed verdict line per check.

These are the end-to-end guarantees of the package: exactness of the
worst-case bound machinery, validity of the bound against the LP oracle
(and attainment where it is attained), empirical FDR/FNR control of the
sequential procedures on dependent data, reproduction of the reference
operating characteristics, the fixed-sample benchmark, calibration
validity, pFDR control, copula statistics generation, and the monitoring
pipeline.  Every Monte Carlo check runs under a pinned seed; the whole
file takes a few minutes.

The LP finding behind check 2: the closed-form bound is valid but not
sharp for every null count.  At J=3, m0=2 a dual certificate gives
FDR <= (2/3) alpha_1 + (4/3) alpha_2 under any dependence, which the LP
attains and which lies below D by (Delta_3 - Delta_2) / 3 for late-heavy
steps (3.02e-2 for bl, 5.27e-2 for the random vector).

Checks 4 and 5 are expected to fail and are left failing rather than
loosened: their all-null (m0 = J) FDR entries come out near 0.140 and
0.155 against reference 0.168 and 0.172, while every other entry is
within tolerance.  The cause is not settled.  A null stream stays active
only above A_1, so the all-null FDR is at most J P0(B_1 before A_1).  At
the program's boundaries that cap is exactly 0.1656 (Binomial) and
0.1854 (Poisson): the Binomial reference lies above it, the Poisson one
below.  No document in the repository says how the reference table was
produced.  The verdict lines carry the measured numbers.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from seqfdr.calibrate import estimate_gamma, mc_truncated_critical_values
from seqfdr.cli import SimulationConfig, _run_trials, _sim_pieces, run_simulation
from seqfdr.core import StepVector, bh_steps, bl_steps, d_bound, d_bound_at, scale_for_fdr, scale_for_pfdr
from seqfdr.datagen import Bernoulli, CopulaConfig, CountBlocks, Poisson, Toeplitz
from seqfdr.fixed_sample import find_matching_fss
from seqfdr.procedures import run_batch, summarize
from seqfdr.sprt import SimpleModel, stepdown_critical_values
from seqfdr.worstcase import verify_bound
from seqfdr.yellowcard import ExperimentConfig, DrugRecord, load_drug_table, run_monitoring, thresholds

from oracles import MatrixSource, copula_uniforms

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "yellowcard_fixture.csv"

SEED = 20260823
J = 10
Q1, Q2 = 0.25, 0.15
REPS = 10_000
CALIB_REPS = 20_000

# reference operating characteristics for the two count families at
# rho = -0.6: per m0, (fdr, fnr, mean per-stream sample size)
BERN = ("bernoulli", 0.05, 0.15)
POIS = ("poisson", 1.5, 2.0)
TABLE_BERN = {0: (0.000, 0.111, 36.0), 5: (0.047, 0.031, 50.5), 10: (0.168, 0.000, 55.2)}
TABLE_POIS = {0: (0.000, None, 31.6), 5: (0.050, None, 40.4), 10: (0.172, None, 40.1)}
FSS_TARGET_N = {"bernoulli": 97, "poisson": 83}


@pytest.fixture(scope="module")
def record(request):
    lines = getattr(request.config, "_acceptance_lines", None)
    if lines is None:
        lines = []
        request.config._acceptance_lines = lines

    def _record(num: int, name: str, ok: bool, detail: str) -> str:
        line = f"[{num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        lines.append(line)
        print(line, flush=True)
        return line

    return _record


@pytest.fixture(scope="module")
def cell():
    """Cached open-ended simulation cells shared between checks."""
    cache = {}

    def run(family: str, null: float, alt: float, m0: int, rho: float):
        key = (family, null, alt, m0, rho)
        if key not in cache:
            cfg = SimulationConfig(
                family=family, null_param=null, alt_param=alt, j=J, m0=m0,
                rho=rho, q1=Q1, q2=Q2, mode="open", reps=REPS, seed=SEED,
            )
            cache[key] = run_simulation(cfg)[0]
        return cache[key]

    return run


def naive_bound(values, m):
    """Independent transcription of the bound: double loop, fsum."""
    j_total = len(values)
    if m == 0:
        return 0.0
    a = [0.0] + [float(v) for v in values]
    head = [(a[j] - a[j - 1]) / j for j in range(1, j_total - m + 2)]
    tail = [
        (a[j] - a[j - 1]) / (j * (j - 1))
        for j in range(j_total - m + 2, j_total + 1)
    ]
    return m * (math.fsum(head) + (j_total - m) * math.fsum(tail))


def test_01_bound_exactness(record):
    rng = np.random.default_rng(SEED)
    worst_sum = worst_lin = 0.0
    for _ in range(1000):
        j = int(rng.integers(1, 51))
        alpha = StepVector(np.sort(rng.uniform(1e-6, 1.0, size=j)))
        for m in range(j + 1):
            worst_sum = max(worst_sum, abs(d_bound_at(alpha, m) - naive_bound(alpha.values, m)))
        c = float(rng.uniform(0.05, 1.0 / alpha.values[-1]))
        worst_lin = max(
            worst_lin, abs(d_bound(alpha.scaled(c)).value - c * d_bound(alpha).value)
        )
    ok = worst_sum <= 1e-12 and worst_lin <= 1e-12
    line = record(1, "bound-machinery exactness", ok,
                  f"naive-sum err {worst_sum:.1e}, linearity err {worst_lin:.1e}, both <= 1e-12")
    assert ok, line


def test_02_lp_sharpness(record):
    """The LP certifies the bound on every cell, attained on bh and m0 in {1, J}.

    D(alpha, m0) is a valid bound, not the worst-case FDR itself: at J=3,
    m0=2 the dual weights 1/3 and 2/3 on each null's "rejected at rank <= 1"
    and "<= 2" rows cover every outcome, so FDR <= (2/3) alpha_1 +
    (4/3) alpha_2 under any joint law, below D by (Delta_3 - Delta_2) / 3.
    The late-heavy bl and rand vectors sit exactly on that certificate.
    """
    rng = np.random.default_rng(SEED)
    bad, gaps = [], []
    checked = 0
    for j in (2, 3, 4):
        rand = StepVector(np.sort(rng.uniform(0.02, 0.6, size=j)))
        for name, alpha in (("bh", bh_steps(0.2, j)), ("bl", bl_steps(0.05, j)), ("rand", rand)):
            for m0 in range(1, j + 1):
                rep = verify_bound(alpha, m0)
                checked += 1
                where = f"{name}(J={j},m0={m0})"
                if rep.lp_optimum > rep.d_value + 1e-7:
                    bad.append(f"{where} LP {rep.lp_optimum:.6g} > D {rep.d_value:.6g}")
                if rep.gap > 1e-7:
                    gaps.append(f"{where} gap={rep.gap:.2e}")
                    if name == "bh" or m0 in (1, j):
                        bad.append(f"{where} not attained (gap={rep.gap:.2e})")
                if j == 3 and m0 == 2 and name != "bh":
                    a1, a2 = alpha.values[:2]
                    cert = (2.0 * a1 + 4.0 * a2) / 3.0
                    if abs(rep.lp_optimum - cert) > 1e-9:
                        bad.append(f"{where} LP {rep.lp_optimum:.10g} != certificate {cert:.10g}")
    ok = not bad
    detail = (f"LP <= D on all {checked} cells, attained on bh and m0 in {{1,J}}, "
              f"J=3 m0=2 certificate exact; {len(gaps)} cells below D: " + "; ".join(gaps)
              if ok else "; ".join(bad))
    line = record(2, "LP certificate of the closed-form bound", ok, detail)
    assert ok, line


@pytest.mark.slow
def test_03_error_control_across_dependence(record, cell):
    bad = []
    for rho in (-0.9, -0.6, 0.0, 0.6):
        s = cell(*BERN, 5, rho)
        if s.fdr > Q1 + 3 * s.fdr_se:
            bad.append(f"fdr@rho={rho}: {s.fdr:.4f}")
        if s.fnr > Q2 + 3 * s.fnr_se:
            bad.append(f"fnr@rho={rho}: {s.fnr:.4f}")
    ok = not bad
    detail = ("fdr <= q1+3se and fnr <= q2+3se at rho in {-0.9,-0.6,0,0.6}" if ok
              else "; ".join(bad))
    line = record(3, "open-ended FDR/FNR control under dependence", ok, detail)
    assert ok, line


def _check_table(cell, family, null, alt, table, check_fnr):
    bad, shown = [], []
    for m0, (fdr_t, fnr_t, en_t) in table.items():
        s = cell(family, null, alt, m0, -0.6)
        shown.append(f"m0={m0}: fdr={s.fdr:.3f} en={s.mean_stream_n:.1f}")
        if abs(s.fdr - fdr_t) > 0.015:
            bad.append(f"fdr[m0={m0}]={s.fdr:.4f} not in {fdr_t}+-0.015")
        if check_fnr and abs(s.fnr - fnr_t) > 0.015:
            bad.append(f"fnr[m0={m0}]={s.fnr:.4f} not in {fnr_t}+-0.015")
        if abs(s.mean_stream_n - en_t) > 0.10 * en_t:
            bad.append(f"en[m0={m0}]={s.mean_stream_n:.1f} not in {en_t}+-10%")
    return bad, "; ".join(shown)


@pytest.mark.slow
def test_04_binomial_reference_table(record, cell):
    bad, shown = _check_table(cell, *BERN, TABLE_BERN, check_fnr=True)
    ok = not bad
    line = record(4, "binomial operating characteristics", ok,
                  shown if ok else "; ".join(bad))
    assert ok, line


@pytest.mark.slow
def test_05_poisson_reference_table(record, cell):
    bad, shown = _check_table(cell, *POIS, TABLE_POIS, check_fnr=False)
    ok = not bad
    line = record(5, "poisson operating characteristics", ok,
                  shown if ok else "; ".join(bad))
    assert ok, line


@pytest.mark.slow
def test_06_fixed_sample_benchmark(record, cell):
    bad, shown = [], []
    for (family, null, alt), m0 in ((BERN, 5), (POIS, 0)):
        s = cell(family, null, alt, m0, -0.6)
        model = SimpleModel(family, null, alt)
        truth = [True] * m0 + [False] * (J - m0)
        config = CopulaConfig(j=J, structure=Toeplitz(-0.6), seed=314)
        res = find_matching_fss(model, config, truth, Q1, s.fnr, REPS, n_max=400)
        n_t = FSS_TARGET_N[family]
        savings = 1.0 - s.mean_stream_n / res.n_fss
        shown.append(f"{family}: n_fss={res.n_fss} savings={savings:.1%}")
        if not res.found:
            bad.append(f"{family}: search did not converge (fnr {res.achieved_fnr:.4f})")
        if abs(res.n_fss - n_t) > 0.10 * n_t:
            bad.append(f"{family}: n_fss={res.n_fss} not in {n_t}+-10%")
        if savings < 0.45:
            bad.append(f"{family}: savings {savings:.1%} < 45%")
    ok = not bad
    line = record(6, "fixed-sample benchmark and savings", ok,
                  "; ".join(shown) if ok else "; ".join(bad))
    assert ok, line


def test_07_truncated_calibration_validity(record):
    alpha = scale_for_fdr(bh_steps(Q1, J), Q1)
    bad, shown = [], []
    for family, null, alt in (BERN, POIS):
        model = SimpleModel(family, null, alt)
        for n_bar in (25, 50):
            rep = mc_truncated_critical_values(model, alpha, n_bar, CALIB_REPS, SEED)
            zs = [
                (rep.achieved[k] - a_k) / math.sqrt(a_k * (1 - a_k) / rep.reps)
                for k, a_k in enumerate(alpha.values)
            ]
            worst = max(zs)
            shown.append(f"{family}/{n_bar}: worst z={worst:+.2f}")
            if worst > 3.0:
                k = int(np.argmax(zs))
                bad.append(
                    f"{family} n_bar={n_bar} k={k}: achieved {rep.achieved[k]:.4f}"
                    f" > {alpha.values[k]:.4f}+3se (z={worst:+.2f})"
                )
    ok = not bad
    line = record(7, "truncated calibration fresh-seed validity", ok,
                  "; ".join(shown) if ok else "; ".join(bad))
    assert ok, line


def _pfdr_cell(family, null, alt):
    """Self-consistent gamma, then a full run at the rescaled boundaries.

    Returns gamma, the trial summary and the fixed-point iterations, None
    when gamma has not settled within 8.
    """
    model = SimpleModel(family, null, alt)
    theta = ("null",) * 5 + ("alt",) * 5
    gamma = 1.0
    for iterations in range(1, 9):
        alpha = scale_for_pfdr(bh_steps(Q1, J), Q1, gamma)
        beta = scale_for_fdr(bh_steps(Q2, J), Q2)
        crit = stepdown_critical_values(alpha, beta)
        # exact gamma: the fixed point is reached when it stops falling
        est = estimate_gamma([model] * J, theta, b=crit.b, a=crit.a)
        if est.gamma1 >= gamma:
            break
        gamma = est.gamma1
    else:
        iterations = None
    cfg = SimulationConfig(family=family, null_param=null, alt_param=alt, j=J,
                           m0=5, rho=-0.6, q1=Q1, q2=Q2, mode="open",
                           reps=REPS, seed=SEED)
    _, _, truth = _sim_pieces(cfg)
    trials, _ = _run_trials(cfg, crit.a, crit.b, 1)
    return gamma, summarize(trials, truth), iterations


@pytest.mark.slow
def test_08_pfdr_control(record):
    bad, shown = [], []
    for family, null, alt in (BERN, POIS):
        gamma, s, iterations = _pfdr_cell(family, null, alt)
        shown.append(f"{family}: gamma1={gamma:.3f} in {iterations} iterations pfdr={s.pfdr:.4f}")
        if iterations is None:
            bad.append(f"{family}: gamma fixed point did not settle in 8 iterations")
        if s.pfdr > Q1 + 3 * s.pfdr_se:
            bad.append(f"{family}: pfdr {s.pfdr:.4f} > {Q1}+3se")
    ok = not bad
    line = record(8, "pFDR control at estimated gamma", ok,
                  "; ".join(shown) if ok else "; ".join(bad))
    assert ok, line


def _by_stream(result, n_bar=None):
    """Per stream of a one-trial result: (action, step, level, truncated).

    A stream is truncated when it is accepted at the rejective horizon
    ``n_bar``.
    """
    return [("reject" if rejected else "accept", step, level,
             not rejected and step == n_bar)
            for rejected, step, level in zip(*(f[0].tolist() for f in result))]


def test_09_procedure_hand_traces(record):
    split = run_batch(
        MatrixSource([[[0.5, -0.3], [2.5, -2.5]]]), 1,
        a=np.array([-2.0, -1.0]), b=np.array([2.0, 1.0]),
    )
    ok = _by_stream(split) == [("reject", 2, 1, False), ("accept", 2, 1, False)]

    trunc = run_batch(
        MatrixSource([[[0.5, 0.1], [1.2, 0.4], [1.5, 0.6]]]), 1,
        a=None, b=np.array([2.0, 1.0]), n_bar=3,
    )
    # accepted at the horizon, levels by ascending final statistic
    ok = ok and _by_stream(trunc, 3) == [("accept", 3, 2, True), ("accept", 3, 1, True)]

    stages = run_batch(
        MatrixSource([[[2.5, 0.1], [np.nan, 1.3]]]), 1,
        a=None, b=np.array([2.0, 1.0]), n_bar=5,
    )
    ok = ok and _by_stream(stages, 5) == [("reject", 1, 1, False), ("reject", 2, 2, False)]
    line = record(9, "hand-traced procedure semantics", ok,
                  "dual-crossing, truncation-accept and two-stage traces exact"
                  if ok else "a trace diverged from its worked decisions")
    assert ok, line


def test_10_copula_statistics(record):
    rng = np.random.default_rng(SEED)
    bad, shown = [], []
    for rho in (-0.9, -0.6, 0.0, 0.6):
        u = copula_uniforms(CopulaConfig(j=J, structure=Toeplitz(rho)), rng, size=100_000)
        z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
        err = max(abs(np.corrcoef(z[:, j], z[:, j + 1])[0, 1] - rho) for j in range(J - 1))
        if err > 0.02:
            bad.append(f"latent corr err {err:.3f} at rho={rho}")
    shown.append("latent corr within 0.02 on the rho grid")

    cfg = CopulaConfig(j=2, structure=Toeplitz(-0.6))
    n = 100_000
    for family, marg in (("bernoulli", Bernoulli(0.05)), ("poisson", Poisson(1.5))):
        counts = CountBlocks(cfg, [[marg, marg]], horizon=n, rngs=[np.random.default_rng(77)])
        blocks = [counts.take([0])[1][0, :, 0]]
        while len(blocks[-1]):
            blocks.append(counts.take([0])[1][0, :, 0])
        totals = np.concatenate(blocks)
        x0, x1 = np.diff(totals, axis=0, prepend=0).T
        if family == "bernoulli":
            obs = np.array([np.sum(x0 == 0), np.sum(x0 == 1)])
            exp = np.array([0.95, 0.05]) * n
        else:
            kmax = 9
            obs = np.bincount(np.minimum(x0, kmax), minlength=kmax + 1)
            pk = stats.poisson.pmf(np.arange(kmax), 1.5)
            exp = np.append(pk, 1.0 - pk.sum()) * n
        pval = stats.chi2.sf(((obs - exp) ** 2 / exp).sum(), len(obs) - 1)
        r = np.corrcoef(x0, x1)[0, 1]
        shown.append(f"{family}: gof p={pval:.2f} count corr={r:+.3f}")
        if pval <= 0.01:
            bad.append(f"{family} marginal gof rejected (p={pval:.4f})")
        if r >= -0.02:
            bad.append(f"{family} counts not negatively dependent (r={r:+.4f})")
    ok = not bad
    line = record(10, "copula marginals and dependence", ok,
                  "; ".join(shown) if ok else "; ".join(bad))
    assert ok, line


def test_11_monitoring_pipeline(record):
    records = load_drug_table(FIXTURE)
    p_h, p_g = thresholds(records)
    cfg = ExperimentConfig(records=tuple(records), q1=0.05, q2=0.15,
                           p_h=p_h, p_g=p_g, rho_seed=11, top_n=25)
    first = run_monitoring(cfg)
    again = run_monitoring(cfg)
    ok = first.rows == again.rows
    drugs = [r.drug for r in first.rows]
    ok = ok and len(drugs) == 25 and len(set(drugs)) == 25
    ok = ok and all(r.action in ("accept", "reject") for r in first.rows)

    null_recs = tuple(DrugRecord(f"d{i}", 4, 94, 1.0, i % 3) for i in range(8))
    false_rej = 0
    runs = 50
    for seed in range(runs):
        rows = run_monitoring(
            ExperimentConfig(records=null_recs, q1=0.05, q2=0.15, p_h=0.05,
                             p_g=0.15, rho_seed=seed, top_n=8)).rows
        false_rej += any(r.action == "reject" for r in rows)
    fdr = false_rej / runs
    se = math.sqrt(fdr * (1 - fdr) / runs)
    ok = ok and fdr <= 0.05 + 3 * se + 1e-9
    line = record(11, "monitoring pipeline on the shipped table", ok,
                  f"deterministic, one decision per drug, all-null fdr={fdr:.3f}"
                  f" <= {0.05 + 3 * se:.3f}")
    assert ok, line
