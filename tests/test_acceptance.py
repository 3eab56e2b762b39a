"""Acceptance suite.

Eleven end-to-end criteria, one test each, run across every supported
deformation order.  Each test prints a single machine-greppable line

    [acceptance] <criterion>: PASS|FAIL (max residual <r>, tolerance <t>)

and then asserts.  Default tolerance is 1e-10; checks that aggregate many
random instances use 1e-9.
"""

import math

import numpy as np

from pgquant import (
    FockOperator,
    ParaPoly,
    check_kfermionic,
    check_mixed_quantization,
    check_ordering_products,
    deformation,
    derivative,
    hermiticity_residual,
    inner_product,
    ladder,
    ladder_dag,
    lower_symbol,
    multiply,
    multiply_theta,
    pseudo_norm_sq,
    q_power_N,
    qfactorial,
    quantize,
    quaternion_demo,
    random_poly,
    resolution_of_unity,
    round_trip_residuals,
    to_bargmann,
    upper_symbol,
)

from coherent_pairing import coherent_overlap, lower_symbol_by_pairing

ALL_K = [4, 6, 8, 10, 12]
TOL = 1e-10
RANDOM_TOL = 1e-9
RANDOM_TRIALS = 100


def report(name, residual, tol):
    status = "PASS" if residual <= tol else "FAIL"
    print(f"[acceptance] {name}: {status} (max residual {residual:.3e}, tolerance {tol:g})")
    assert residual <= tol, f"{name}: residual {residual:.3e} exceeds tolerance {tol:g}"


def test_01_resolution_of_unity():
    worst = 0.0
    for k in ALL_K:
        dfm = deformation(k)
        for d in (1, 2):
            ru = resolution_of_unity(dfm, d)
            worst = max(worst, ru.residual(FockOperator.identity(dfm, d)))
    dfm = deformation(4)
    ru = resolution_of_unity(dfm, 3)
    worst = max(worst, ru.residual(FockOperator.identity(dfm, 3)))
    report("resolution of unity (k in 4..12, up to 3 modes)", worst, TOL)


def test_02_deformed_commutation_relations():
    worst = 0.0
    for k in ALL_K:
        dfm = deformation(k)
        low = ladder(dfm)
        high = ladder_dag(dfm)
        q = dfm.q
        worst = max(
            worst,
            (low @ high - q * (high @ low)).residual(q_power_N(dfm, sign=-1)),
            (low @ high - q.conjugate() * (high @ low)).residual(q_power_N(dfm, sign=1)),
        )
    for k in (4, 6, 8):
        dfm = deformation(k)
        q = dfm.q
        for mode in (1, 2):
            low = ladder(dfm, 2, mode)
            high = ladder_dag(dfm, 2, mode)
            worst = max(
                worst,
                (low @ high - q * (high @ low)).residual(
                    q_power_N(dfm, 2, sign=-1, mode=mode)
                ),
            )
        # distinct modes commute outright
        a1, a2 = ladder(dfm, 2, 1), ladder(dfm, 2, 2)
        b2 = ladder_dag(dfm, 2, 2)
        worst = max(worst, (a1 @ a2 - a2 @ a1).max_abs(), (a1 @ b2 - b2 @ a1).max_abs())
    report("deformed commutation relations (single and two mode)", worst, TOL)


def test_03_power_homomorphism_and_nilpotency():
    worst = 0.0
    for k in ALL_K:
        dfm = deformation(k)
        kp = dfm.kprime
        low = ladder(dfm)
        th = ParaPoly.generator(dfm, 1, 1)
        p = ParaPoly.unit(dfm)
        for n in range(1, kp + 1):
            p = p * th
            worst = max(worst, quantize(p).residual(low.power(n)))
        # nilpotency is exact, not approximate
        assert low.power(kp).max_abs() == 0.0, f"k={k}: top power of the ladder is not exactly 0"
        assert p.is_zero(), f"k={k}: top power of theta is not exactly 0"
    report("power homomorphism and exact nilpotency", worst, TOL)


def test_04_conjugation_matches_adjoint():
    worst = 0.0
    for k in ALL_K:
        dfm = deformation(k)
        worst = max(worst, ladder_dag(dfm).residual(ladder(dfm).dagger()))
        worst = max(worst, hermiticity_residual(dfm, trials=RANDOM_TRIALS, seed=k))
    report("conjugation quantizes to the adjoint (100 random trials per k)", worst, RANDOM_TOL)


def test_05_symbol_round_trips():
    worst = 0.0
    for k in ALL_K:
        dfm = deformation(k)
        r_poly, r_mat = round_trip_residuals(dfm, trials=RANDOM_TRIALS, seed=k)
        worst = max(worst, r_poly, r_mat)
    # closed form at k = 4: entries map to (const, theta, bartheta, mixed)
    dfm = deformation(4)
    rng = np.random.default_rng(0)
    for _ in range(RANDOM_TRIALS):
        a = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        sym = upper_symbol(FockOperator(dfm, 1, a))
        closed = ParaPoly(
            dfm,
            1,
            {
                ((0,), (0,)): a[1, 1],
                ((1,), (0,)): a[0, 1],
                ((0,), (1,)): a[1, 0],
                ((1,), (1,)): a[0, 0] - a[1, 1],
            },
        )
        worst = max(worst, sym.distance(closed))
    report("symbol round trips (100 random instances per k)", worst, RANDOM_TOL)


def test_06_quaternion_star_arithmetic():
    rep = quaternion_demo(trials=RANDOM_TRIALS, seed=0, tolerance=TOL)
    worst = max(c.residual for c in rep.checks)
    assert rep.all_pass, [c.name for c in rep.checks if not c.passed]
    report("quaternion arithmetic from the k=4 star product", worst, TOL)


def test_07_coherent_expectation_symbol():
    worst = 0.0
    for k in ALL_K:
        dfm = deformation(k)
        th = ParaPoly.generator(dfm, 1, 1)
        bth = ParaPoly.generator(dfm, 1, 1, barred=True)
        ov = coherent_overlap(dfm)
        worst = max(worst, lower_symbol(FockOperator.identity(dfm, 1)).distance(ov))
        worst = max(worst, lower_symbol(ladder(dfm)).distance(multiply(ov, th)))
        worst = max(worst, lower_symbol(ladder_dag(dfm)).distance(multiply(bth, ov)))
        rng = np.random.default_rng(k)
        kp = dfm.kprime
        for _ in range(20):
            mat = rng.uniform(-1, 1, (kp, kp)) + 1j * rng.uniform(-1, 1, (kp, kp))
            op = FockOperator(dfm, 1, mat)
            worst = max(worst, lower_symbol(op).distance(lower_symbol_by_pairing(op)))
    report("coherent expectation symbol and pairing cross-check", worst, TOL)


def test_08_holomorphic_representation():
    worst = 0.0
    for k in ALL_K:
        dfm = deformation(k)
        kp = dfm.kprime
        low = ladder(dfm).mat
        high = ladder_dag(dfm).mat
        for n in range(kp):
            psi = np.zeros(kp, complex)
            psi[n] = 1.0
            f = to_bargmann(psi, dfm)
            worst = max(worst, to_bargmann(low @ psi, dfm).distance(derivative(f)))
            worst = max(worst, to_bargmann(high @ psi, dfm).distance(multiply_theta(f)))
    report("holomorphic picture intertwines both ladder operators", worst, TOL)


def test_09_ordered_product_closed_forms():
    worst = 0.0
    for k in ALL_K:
        rep = check_ordering_products(deformation(k), tolerance=TOL)
        worst = max(worst, max(c.residual for c in rep.checks))
    for k in (4, 6, 8):
        rep = check_mixed_quantization(deformation(k), tolerance=TOL)
        worst = max(worst, max(c.residual for c in rep.checks))
    report("ordered and mixed product closed forms", worst, TOL)


def test_10_generalized_fermion_algebra():
    worst = 0.0
    for k in ALL_K:
        rep = check_kfermionic(deformation(k), tolerance=TOL)
        one_two = [c.residual for c in rep.checks if not c.name.startswith("(iii)")]
        worst = max(worst, max(one_two))
        branch_worst = {}
        for label in ("principal", "negated"):
            rs = [c.residual for c in rep.checks if f"[{label} branch]" in c.name]
            assert len(rs) == 2, f"k={k}: branch {label} not reported"
            branch_worst[label] = max(rs)
        # both square-root branches are reported; at least one must hold
        worst = max(worst, min(branch_worst.values()))
    report("generalized fermion algebra of order k/2", worst, TOL)


def test_11_orthonormal_basis_and_positivity():
    worst = 0.0
    for k in ALL_K:
        dfm = deformation(k)
        kp = dfm.kprime
        basis = [
            ParaPoly.monomial(dfm, 1, (0,), (n,), 1.0 / math.sqrt(qfactorial(n, dfm)))
            for n in range(kp)
        ]
        for n in range(kp):
            for m in range(kp):
                got = inner_product(basis[n], basis[m])
                want = 1.0 if n == m else 0.0
                worst = max(worst, abs(got - want))
        rng = np.random.default_rng(k)
        for _ in range(RANDOM_TRIALS):
            v = random_poly(dfm, rng, full=False)
            n2 = pseudo_norm_sq(v)
            worst = max(worst, abs(n2.imag), max(0.0, -n2.real))
    report("orthonormal number basis and nonnegative split-sector norms", worst, TOL)
