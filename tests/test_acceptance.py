"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 4 is the negative control alpha = 2, beta = 1, A(t0) = 1.5, which
lies outside the odd-integer family.  Its second clause checks how the
population moves twice per period: state 1 revives to full occupation and
P2, P3 return to zero at the action's zeros (t = T/2 and T), while state 1
is never emptied.  A literal "P1 drops below 1e-3 twice per period" cannot
hold for this drive: the populations depend on time only through the
action, P1 is even in it, |A| <= v0/omega = 1.5, and the exact minimum of P1
over that range is 0.0319 (P1 < 1e-3 first needs |A| ~ 2.01).
"""

import math
import time

import numpy as np
import pytest
from helpers import compare_analytic_numeric, count_returns

from tripop import (
    CouplingRatios,
    IntegratorConfig,
    LevelEnergies,
    OddPair,
    Pulse,
    build_dressed_basis,
    condition_from_odd_pair,
    delta_p2_at_t0,
    delta_p2_early,
    enumerate_conditions,
    harmonic_for_condition,
    integrate,
    measured_deficit,
    measured_delta_p2,
    measured_two_level_deficit,
    p3_max,
    populations_closed_form_array,
    populations_general_array,
    propagate_kick,
    two_level_p2_bound,
    two_level_populations,
)

RNG = np.random.default_rng(31)
T = 2.0 * math.pi

TABLE_ROWS = {
    (1, 5): (1.656, 2.530),
    (5, 1): (1.656, -2.530),
    (3, 3): (2.221, 0.000),
    (1, 11): (2.456, 4.264),
    (11, 1): (2.456, -4.264),
    (1, 17): (3.053, 5.488),
    (17, 1): (3.053, -5.488),
    (1, 23): (3.551, 6.487),
    (23, 1): (3.551, -6.487),
    (3, 9): (3.848, 1.633),
    (9, 3): (3.848, -1.633),
    (1, 29): (3.988, 7.353),
    (29, 1): (3.988, -7.353),
    (1, 35): (4.381, 8.128),
    (5, 7): (4.381, 0.478),
    (7, 5): (4.381, -0.478),
    (35, 1): (4.381, -8.128),
}


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description}{suffix}")
    assert ok, f"criterion {num:02d} ({description}): {detail}"


def test_criterion_01_table_reproduction():
    """Enumeration reproduces every published row to 3 decimals, with exact
    integer identities, in under a second."""
    start = time.perf_counter()
    rows = enumerate_conditions(35)
    ok = len(rows) == 17
    details = []
    for cond in rows:
        a_ref, alpha_ref = TABLE_ROWS[(cond.n1, cond.n2)]
        if abs(cond.action_t0 - a_ref) > 5e-4 or abs(cond.alpha - alpha_ref) > 5e-4:
            ok = False
            details.append(f"({cond.n1},{cond.n2})")
        n1, n2 = cond.n1, cond.n2
        k_i, kp_i = (n1 + n2) // 3, (n2 - 2 * n1) // 3
        k_ii, kp_ii = (2 * n1 - n2) // 3, (2 * n2 - n1) // 3
        k_iii, kp_iii = (n1 - 2 * n2) // 3, (n1 + n2) // 3
        if not (
            (k_i - kp_i) * (2 * k_i + kp_i)
            == (2 * k_ii + kp_ii) * (k_ii + 2 * kp_ii)
            == (2 * kp_iii + k_iii) * (kp_iii - k_iii)
            == n1 * n2
        ):
            ok = False
            details.append(f"ids({n1},{n2})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, "table reproduction and integer identities", ok,
           f"rows={len(rows)} elapsed={elapsed:.3f}s {' '.join(details)}")


def test_criterion_02_complete_transfer_analytic():
    """Every family member transfers completely in closed form (1e-12) and the
    closed form matches the cosine-sum populations within 1e-10 at 1000
    action samples."""
    worst_transfer = 0.0
    worst_match = 0.0
    actions = np.linspace(-1.5, 1.5, 1000)
    for cond in enumerate_conditions(35):
        p = populations_closed_form_array(cond, cond.action_t0)[0]
        worst_transfer = max(worst_transfer, abs(p[0]), abs(1.0 - p[1]), abs(p[2]))
        basis = build_dressed_basis(cond.ratios())
        scaled = actions * abs(cond.action_t0)
        diff = np.abs(
            populations_closed_form_array(cond, scaled)
            - populations_general_array(basis, scaled)
        )
        worst_match = max(worst_match, float(diff.max()))
    ok = worst_transfer < 1e-12 and worst_match < 1e-10
    report(2, "analytic complete transfer for all families", ok,
           f"max transfer residual={worst_transfer:.2e} max form mismatch={worst_match:.2e}")


def test_criterion_03_ode_oracle_matches_figures():
    """RK4 at 20000 steps/period matches the analytic populations within 1e-6
    over one period for the three transfer figures, drift < 1e-8, < 10 s."""
    config = IntegratorConfig(steps_per_period=20000)
    start = time.perf_counter()
    worst_dev = 0.0
    worst_drift = 0.0
    for alpha, area in ((0.0, 2.2214414690791831), (-2.5298221281347035, 1.655764710966017),
                        (8.127573540547968, 4.380791562648629)):
        ratios = CouplingRatios(alpha=alpha, beta=1.0)
        pulse = Pulse.harmonic(v0=area, omega=1.0)
        worst_dev = max(worst_dev, compare_analytic_numeric(ratios, pulse, T, config))
        trace = integrate(ratios, LevelEnergies(), pulse, T, config)
        worst_drift = max(worst_drift, trace.norm_drift)
    elapsed = time.perf_counter() - start
    ok = worst_dev < 1e-6 and worst_drift < 1e-8 and elapsed < 10.0
    report(3, "RK4 oracle matches analytic figure traces", ok,
           f"max dev={worst_dev:.2e} drift={worst_drift:.2e} elapsed={elapsed:.1f}s")


def test_criterion_04_negative_control():
    """alpha = 2, beta = 1, A(t0) = 1.5 is outside the family: max P2 < 0.999,
    and twice per period, at the action's zeros, P1 revives to 1 while P2
    and P3 return to 0; P1 never drops below 1e-3.

    The paper's abstract does not word this control, so the second clause
    rests on the exact solution: P1 depends on time only through the action
    A(t) = 1.5 sin t and is even in it, and over |A| <= 1.5 its minimum is
    0.0319, so state 1 is never emptied (family members empty it at t0).
    The RK4 trace is checked against that exact solution, built here from
    eigh of K, within 1e-6 as in criterion 3."""
    ratios = CouplingRatios(2.0, 1.0)
    pulse = Pulse.harmonic(1.5, 1.0)
    trace = integrate(
        ratios,
        LevelEnergies(),
        pulse,
        T,
        IntegratorConfig(steps_per_period=20000),
    )
    # exact amplitudes a(A) = V exp(-i z A) V^T e1, with K = V diag(z) V^T
    z, v = np.linalg.eigh(ratios.coupling_matrix())
    actions = pulse.v0 / pulse.omega * np.sin(pulse.omega * trace.times)
    exact = np.abs((v * np.exp(-1j * np.outer(actions, z))[:, None, :]) @ v[0]) ** 2
    max_dev = float(np.abs(trace.populations - exact).max())

    max_p2 = float(trace.p2.max())
    min_p1 = float(trace.p1.min())
    p1_dips = count_returns(trace.p1, 1e-3, below=True)
    p1_revivals = count_returns(trace.p1, 1.0 - 1e-3, below=False)
    p2_returns = count_returns(trace.p2, 1e-3, below=True)
    p3_returns = count_returns(trace.p3, 1e-3, below=True)

    report(4, "negative control: incomplete transfer", max_p2 < 0.999,
           f"max P2={max_p2:.6f}")
    ok_exact = max_dev < 1e-6
    report(4, "negative control: RK4 matches the exact eigh solution", ok_exact,
           f"max dev={max_dev:.2e}")
    ok_returns = p1_revivals == 2 and p2_returns == 2 and p3_returns == 2 and p1_dips == 0
    report(4, "negative control: returns to state 1 twice per period, never emptied",
           ok_returns,
           f"P1<1e-3 dips={p1_dips}, min P1={min_p1:.4f}; "
           f"P1 revivals to 1={p1_revivals}, P2 returns to 0={p2_returns}, "
           f"P3 returns to 0={p3_returns}")


def test_criterion_05_p3_ceiling():
    """Dense scans of the intermediate-level population reach exactly
    2 n1 n2/(n1+n2)^2, which is 0.5 iff n1 = n2."""
    grid = np.linspace(0.0, 1.0, 200001)
    worst = 0.0
    ok = True
    for cond in enumerate_conditions(35):
        scan = populations_closed_form_array(cond, grid * 2.0 * abs(cond.action_t0))
        ceiling = p3_max(cond)
        worst = max(worst, abs(float(scan[:, 2].max()) - ceiling))
        if cond.n1 == cond.n2 and ceiling != 0.5:
            ok = False
        if cond.n1 != cond.n2 and not ceiling < 0.5:
            ok = False
    ok = ok and worst < 1e-6
    report(5, "intermediate-level ceiling 2 n1 n2/(n1+n2)^2", ok,
           f"max scan-vs-formula gap={worst:.2e}")


def test_criterion_06_quartic_flatness():
    """Near the transfer instant 1 - P2 flattens as the fourth power of the
    time offset: log-log slope 4.0 +- 0.1 over offsets 0.01..0.1 rad."""
    cond = enumerate_conditions(9)[-1]  # (3, 3)
    basis = build_dressed_basis(cond.ratios())
    offsets = np.linspace(0.01, 0.1, 50)
    actions = cond.action_t0 * np.sin(math.pi / 2.0 + offsets)
    deficit = 1.0 - populations_general_array(basis, actions)[:, 1]
    slope = float(np.polyfit(np.log(offsets), np.log(deficit), 1)[0])
    ok = abs(slope - 4.0) < 0.1
    report(6, "quartic flatness of 1 - P2 near the transfer instant", ok,
           f"slope={slope:.4f}")


def test_criterion_07_kick_limit():
    """Gaussian kicks of the transfer area on unit-split levels converge
    monotonically to complete transfer; width 0.025 exceeds P2 = 0.999."""
    area = math.pi / math.sqrt(2.0)
    ratios = CouplingRatios(0.0, 1.0)
    basis = build_dressed_basis(ratios)
    ideal_p2 = abs(propagate_kick(basis, area).a[1]) ** 2
    energies = LevelEnergies.from_splittings(1.0, 1.0)
    p2 = []
    for width in (0.1, 0.05, 0.025):
        pulse = Pulse.gaussian_kick(area, 10.0 * width, width)
        trace = integrate(
            ratios, energies, pulse, 20.0 * width, IntegratorConfig(steps_per_period=20000)
        )
        p2.append(float(trace.p2[-1]))
    ok = (
        ideal_p2 == pytest.approx(1.0, abs=1e-12)
        and p2[0] < p2[1] < p2[2] < 1.0
        and p2[2] > 0.999
    )
    report(7, "Gaussian kicks converge to the ideal-kick transfer", ok,
           "P2=" + ", ".join(f"{v:.6f}" for v in p2))


def test_criterion_08_two_level_suite():
    """Equal diagonals give exactly sin^2(A); unequal diagonals obey the
    transfer cap, and a dense sweep attains it within 1e-9."""
    ok_sine = all(
        abs(two_level_populations(e, e, a)[1] - math.sin(a) ** 2) < 1e-12
        for e, a in zip(RNG.uniform(-2, 2, 50), RNG.uniform(-10, 10, 50))
    )
    ok_bound = True
    for _ in range(200):
        e1, e2 = (float(v) for v in RNG.uniform(-3, 3, 2))
        action = float(RNG.uniform(-20, 20))
        p2 = two_level_populations(e1, e2, action)[1]
        if p2 > two_level_p2_bound(e1, e2) + 1e-12:
            ok_bound = False
    bound = two_level_p2_bound(0.0, 2.0)
    sweep = np.linspace(0.0, math.pi, 400001)
    best = max(
        two_level_populations(0.0, 2.0, float(a))[1]
        for a in np.linspace(math.pi / (2 * math.sqrt(2)) - 0.001,
                             math.pi / (2 * math.sqrt(2)) + 0.001, 4001)
    )
    coarse = max(
        two_level_populations(0.0, 2.0, float(a))[1] for a in sweep[::200]
    )
    attained = max(best, coarse)
    ok = ok_sine and ok_bound and abs(attained - bound) < 1e-9
    report(8, "two-level reference: sine-squared law and transfer cap", ok,
           f"cap={bound} attained={attained:.12f}")


def test_criterion_09_leakage_trends():
    """Measured deficit trends: monotone in the splitting along a ray, reduced
    by doubling the drive frequency, quartic in time at early times, and the
    perturbative estimates agree with measurement within their documented
    bands (early-time: 25% on magnitudes for drive phases <= 0.2; at-t0 and
    two-level references: stable quadratic-splitting scaling)."""
    cond = condition_from_odd_pair(OddPair(-1, 3))
    scan_cfg = IntegratorConfig(steps_per_period=4000)
    fine_cfg = IntegratorConfig(steps_per_period=20000)

    deficits = [
        measured_deficit(cond, r, 0.0, config=scan_cfg) for r in (0.01, 0.02, 0.05, 0.1)
    ]
    ok_monotone = all(a < b for a, b in zip(deficits, deficits[1:]))

    base = measured_deficit(cond, 0.05, 0.0, config=scan_cfg, omega=1.0)
    halved_ratio = measured_deficit(cond, 0.025, 0.0, config=scan_cfg, omega=2.0)
    ok_doubling = halved_ratio < base

    pulse = harmonic_for_condition(cond, 1.0)
    quartic = []
    for t in np.linspace(0.05, 0.1, 5):
        meas = measured_delta_p2(cond.ratios(), pulse, 0.1, 0.0, float(t), fine_cfg)
        assert 0.1 * float(t) < 0.2
        quartic.append(abs(meas) / float(t) ** 4)
    quartic = np.array(quartic)
    ok_quartic = (quartic.max() - quartic.min()) / quartic.mean() < 0.10

    v12 = cond.alpha * pulse.v0
    ok_early = True
    for t in (0.05, 0.1, 0.2):
        meas = abs(measured_delta_p2(cond.ratios(), pulse, 0.1, 0.0, t, fine_cfg))
        est = abs(delta_p2_early(v12, pulse.v0, pulse.v0, 0.1, 0.0, t))
        if abs(est - meas) > 0.25 * meas:
            ok_early = False

    att0 = []
    for r in (0.01, 0.02, 0.05):
        est = delta_p2_at_t0(cond, r, r / 2.0)
        att0.append(est / measured_deficit(cond, r, r / 2.0, config=scan_cfg))
    att0 = np.array(att0)
    ok_att0 = (att0.max() - att0.min()) / att0.mean() < 0.05

    two_level = np.array(
        [measured_two_level_deficit(r, IntegratorConfig(steps_per_period=4 * 6000)) / r**2 for r in (0.01, 0.02, 0.05)]
    )
    ok_two = (two_level.max() - two_level.min()) / two_level.mean() < 0.02

    ok = ok_monotone and ok_doubling and ok_quartic and ok_early and ok_att0 and ok_two
    report(9, "leakage trends and documented estimate bands", ok,
           f"monotone={ok_monotone} doubling={ok_doubling} quartic={ok_quartic} "
           f"early25%={ok_early} at-t0-scaling={ok_att0} two-level-scaling={ok_two}")


def test_criterion_10_convergence_order():
    """Halving the RK4 step cuts the analytic-vs-numeric deviation by a factor
    inside [12, 20] on the alpha = 0 transfer configuration."""
    ratios = CouplingRatios(0.0, 1.0)
    pulse = Pulse.harmonic(2.2214414690791831, 1.0)
    dev_coarse = compare_analytic_numeric(ratios, pulse, T, IntegratorConfig(steps_per_period=500))
    dev_fine = compare_analytic_numeric(ratios, pulse, T, IntegratorConfig(steps_per_period=1000))
    factor = dev_coarse / dev_fine
    ok = 12.0 < factor < 20.0
    report(10, "fourth-order step-halving factor", ok, f"factor={factor:.2f}")
