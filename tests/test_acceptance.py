"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run).  Criteria are deterministic:
random draws use fixed seeds.
"""

import math
import time

import numpy as np

from unipulse import (
    Direction,
    PulseParams,
    SpacetimePoint,
    Waveform,
    backward_direction_grid,
    check_unidirectional,
    complex_distance,
    convergence_order,
    energy_estimate,
    eval_quasi_spherical,
    eval_simple_pulse,
    eval_spherical_reference,
    farfield_analytic,
    farfield_numeric,
    integrate_semi_infinite,
    reconstruct_cartesian_mc,
    reconstruct_from_weight,
    reconstruct_fourier_bessel,
    reconstruct_hemisphere,
)

P = PulseParams(1.0, 1.0, 0.0)
RATIONAL = Waveform(1.0)
LEKNER = Waveform(1.0, 1.0)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {description} {detail}".rstrip())
    assert ok, f"criterion {number}: {description} {detail}"


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_closed_form_identity():
    rng = np.random.default_rng(1)
    with Stopwatch() as sw:
        worst = 0.0
        for zeta in (0.0, 0.5):
            params = PulseParams(1.0, 1.0, zeta)
            w = Waveform(params.b - zeta)
            for _ in range(1000):
                pt = SpacetimePoint(*rng.uniform(-3.0, 3.0, 4))
                u1 = eval_simple_pulse(pt, params)
                u2 = eval_quasi_spherical(pt, params, w)
                worst = max(worst, abs(u1 - u2) / abs(u1))
    report(
        1, "closed-form identity at 1000 random points, zeta in {0, 0.5}",
        worst <= 1e-13 and sw.elapsed < 1.0,
        f"(worst rel {worst:.2e}, {sw.elapsed:.2f}s)",
    )


def test_criterion_2_branch_invariants():
    rng = np.random.default_rng(2)
    with Stopwatch() as sw:
        # rows of (t, rho, z), drawn in the order of one draw per coordinate
        t, rho, z = rng.uniform([-10.0, 0.0, -10.0], [10.0, 10.0, 10.0], (100_000, 3)).T
        pt = SpacetimePoint.from_cylindrical(t, rho, z)
        s = complex_distance(pt, P)
        min_im_s = float(s.imag.min())
        # the phase theta = S - z - i b that the closed forms feed to f
        min_im_theta = float((s - pt.z - 1j * P.b).imag.min())
    ok = (
        min_im_s >= P.c * P.tau - 1e-12
        and min_im_theta >= -1e-12
        and sw.elapsed < 5.0
    )
    report(
        2, "branch invariants Im S >= c*tau and Im theta >= 0 at 1e5 points",
        ok, f"(min Im S {min_im_s:.6f}, min Im theta {min_im_theta:.2e}, {sw.elapsed:.2f}s)",
    )


def test_criterion_3_pde_convergence_order():
    rng = np.random.default_rng(3)
    ladder = tuple(f * P.b for f in (4e-3, 2e-3, 1e-3))
    evaluators = (
        lambda p: eval_simple_pulse(p, P),
        lambda p: eval_quasi_spherical(p, P, LEKNER),
    )
    with Stopwatch() as sw:
        orders = []
        for ev in evaluators:
            for _ in range(20):
                pt = SpacetimePoint(*rng.uniform(-1.2, 1.2, 4))
                orders.append(convergence_order(ev, pt, ladder, P))
    # a floored point reads NaN, which min and max of a list can pass over
    lo, hi = min(orders), max(orders)
    report(
        3, "wave-equation residual convergence order in [1.8, 2.2] for both pulses",
        all(map(math.isfinite, orders)) and 1.8 <= lo and hi <= 2.2 and sw.elapsed < 10.0,
        f"(orders [{lo:.3f}, {hi:.3f}], {sw.elapsed:.2f}s)",
    )


def test_criterion_4_farfield_agreement():
    ev = lambda p: eval_quasi_spherical(p, P, RATIONAL)
    with Stopwatch() as sw:
        worst = 0.0
        for chi in (0.0, math.pi / 6, math.pi / 3):
            for s in (-1.0, 0.0, 1.0):
                n = Direction(chi)
                fn = farfield_numeric(ev, s, n, P).value
                fa = farfield_analytic(s, n, P, RATIONAL)
                worst = max(worst, abs(fn - fa) / abs(fa))
    report(
        4, "numeric vs closed-form far field to 1e-6 relative",
        worst <= 1e-6 and sw.elapsed < 10.0,
        f"(worst rel {worst:.2e}, {sw.elapsed:.2f}s)",
    )


def test_criterion_5_unidirectionality_certificate():
    s_values = [-2.0, -1.0, 0.0, 1.0, 2.0]
    directions = backward_direction_grid()
    with Stopwatch() as sw:
        pulses = {
            "simple": check_unidirectional(
                lambda p: eval_simple_pulse(p, P), s_values, directions, 1e-6, P
            ),
            "lekner": check_unidirectional(
                lambda p: eval_quasi_spherical(p, P, LEKNER), s_values, directions,
                1e-6, P,
            ),
        }
        reference = check_unidirectional(
            lambda p: eval_spherical_reference(p, P, RATIONAL, b_ref=1.0),
            s_values, directions, 1e-6, P,
        )
    ok = (
        all(rep.passed for rep in pulses.values())
        and not reference.passed
        and sw.elapsed < 10.0
    )
    detail = ", ".join(f"{k} max|F| {rep.max_abs:.2e}" for k, rep in pulses.items())
    report(
        5, "backward far field <= 1e-6 for both pulses; spherical reference FAILS",
        ok, f"({detail}; reference max|F| {reference.max_abs:.2e}, {sw.elapsed:.2f}s)",
    )


def test_criterion_6_route_agreement():
    points = [
        SpacetimePoint.from_cylindrical(0.0, 0.5, 0.2),
        SpacetimePoint.from_cylindrical(0.5, 0.4, 0.3),
        SpacetimePoint.from_cylindrical(0.3, 0.8, -0.4),
        SpacetimePoint.from_cylindrical(1.0, 0.3, 0.6),
        SpacetimePoint.from_cylindrical(0.7, 1.1, 0.1),
    ]
    with Stopwatch() as sw:
        worst = {"hemisphere": 0.0, "fourier_bessel": 0.0, "from_weight": 0.0}
        for pt in points:
            exact = eval_simple_pulse(pt, P)
            worst["hemisphere"] = max(
                worst["hemisphere"],
                abs(reconstruct_hemisphere(P, RATIONAL, pt, 1e-6).value - exact),
            )
            worst["fourier_bessel"] = max(
                worst["fourier_bessel"],
                abs(reconstruct_fourier_bessel(P, RATIONAL, pt, 1e-6).value - exact),
            )
            worst["from_weight"] = max(
                worst["from_weight"],
                abs(reconstruct_from_weight(P, RATIONAL, pt, 1e-6).value - exact),
            )
    ok = all(v <= 1e-5 for v in worst.values()) and sw.elapsed < 120.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    report(6, "closed form vs three reconstructions <= 1e-5 at 5 points",
           ok, f"({detail}, {sw.elapsed:.1f}s)")


def test_criterion_7_monte_carlo_cartesian():
    points = [
        SpacetimePoint.from_cylindrical(0.0, 0.5, 0.0),
        SpacetimePoint.from_cylindrical(0.0, 0.3, 0.4),
    ]
    with Stopwatch() as sw:
        ok = True
        details = []
        for i, pt in enumerate(points):
            exact = eval_simple_pulse(pt, P)
            mc = reconstruct_cartesian_mc(P, RATIONAL, pt, 1_000_000, 20260808 + i)
            again = reconstruct_cartesian_mc(P, RATIONAL, pt, 1_000_000, 20260808 + i)
            pull = abs(mc.value - exact) / mc.stderr
            ok = ok and pull <= 3.0 and mc.value == again.value
            details.append(f"pull {pull:.2f}")
    report(
        7, "Monte-Carlo Cartesian estimate within 3 stderr, seed-reproducible",
        ok and sw.elapsed < 60.0, f"({', '.join(details)}, {sw.elapsed:.1f}s)",
    )


def test_criterion_8_spectrum_roundtrip():
    rng = np.random.default_rng(8)
    with Stopwatch() as sw:
        worst = 0.0
        for w in (RATIONAL, Waveform(1.0, 2.0)):
            for _ in range(100):
                r = math.sqrt(rng.uniform(0.0, 1.0)) * 10.0
                ang = rng.uniform(0.0, math.pi)
                theta = complex(r * math.cos(ang), max(r * math.sin(ang), 0.1))
                # in x = kappa - K, on the spectrum's support
                k0 = w.K
                res = integrate_semi_infinite(
                    lambda x: w.spectrum(k0 + x) * np.exp(1j * (k0 + x) * theta),
                    1e-10,
                    w.a + 0.9 * theta.imag,
                )
                worst = max(worst, abs(res.value - w.eval(theta)))
    report(
        8, "waveform eval reproduced from its spectrum to 1e-8 at 100 points each",
        worst <= 1e-8 and sw.elapsed < 5.0,
        f"(worst abs {worst:.2e}, {sw.elapsed:.2f}s)",
    )


def test_criterion_9_energy_finite_and_conserved():
    with Stopwatch() as sw:
        e0 = energy_estimate(0.0, P, RATIONAL)
        e1 = energy_estimate(1.0, P, RATIONAL)
        rel = abs(e0.value - e1.value) / e0.value
    ok = (
        math.isfinite(e0.value) and math.isfinite(e1.value)
        and e0.value > 0.0 and rel <= 1e-3 and sw.elapsed < 120.0
    )
    report(
        9, "energy finite and conserved between t=0 and t=1 to 1e-3 relative",
        ok, f"(E0 {e0.value:.6f}, E1 {e1.value:.6f}, rel {rel:.2e}, {sw.elapsed:.1f}s)",
    )
