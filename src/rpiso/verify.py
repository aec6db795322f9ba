"""Verification suite: every module invariant as a named, tolerated check.

Each check returns a CheckResult with a human-readable detail string; the
CLI verify command runs them all and conjoins the verdicts.  Checks name
themselves through _check, the one place a CheckResult is built.
Tolerances live in DEFAULT_TOLERANCES and can be overridden by name;
_check_tolerance refuses an unknown name or a value that is not positive
and finite, whether run_all, the CLI or a check called on its own reads
the override.  Only the profile checks take sizes, which the CLI sets;
the others run fixed grids or seeded draws.  Each sweep over them is one
batched pass: the quadrature and the closed form of the integrals in one
call each, the random shapes in four array draws, evaluated per
(n1, n2) with array latitudes, and the area chains and convexity grids
of every n in one formula pass each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import clifford, profile, spectrum, specfn, willmore

__all__ = ["CheckResult", "DEFAULT_TOLERANCES", "run_all"]

_HALF_PI = 0.5 * math.pi

DEFAULT_TOLERANCES: dict[str, float] = {
    "profile_symmetry": 1e-8,
    "endpoint_margin": 1e-9,
    "identity": 1e-12,
    "specfn_agree": 1e-10,
    "sphere_area": 1e-12,
    "willmore_min": 1e-6,
    "logf_fd": 1e-5,
    "rp3_perimeter": 1e-9,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_tolerance(name: str, value: float) -> None:
    """Raise ValueError unless value is positive and finite (NaN fails every
    check, inf passes it) and name is a key of DEFAULT_TOLERANCES."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"tolerance {name!r} must be positive and finite, got {value!r}")
    if name not in DEFAULT_TOLERANCES:
        known = ", ".join(sorted(DEFAULT_TOLERANCES))
        raise ValueError(f"unknown tolerance {name!r}; known names: {known}")


def _checked(overrides: dict[str, float] | None) -> dict[str, float]:
    """overrides, or {} for None, once _check_tolerance passes every entry."""
    overrides = overrides or {}
    for name, value in overrides.items():
        _check_tolerance(name, value)
    return overrides


def _tol(overrides: dict[str, float] | None, name: str) -> float:
    """Tolerance name or its override, once every override is checked."""
    return _checked(overrides).get(name, DEFAULT_TOLERANCES[name])


def _check(name: str):
    """Turn a check body returning (passed, detail) into a check returning
    CheckResult(name, passed, detail); functools.wraps keeps the body's
    __name__ and __module__."""

    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            return CheckResult(name, *body(*args, **kwargs))

        return check

    return decorate


@_check("successive_profiles")
def check_successive(max_dim: int = 10, samples: int = 2000):
    """Successive handoff of tube families in ambient dims 3..max_dim."""
    specfn._check_int("max_dim", max_dim, 3)
    failures = [d for d in range(3, max_dim + 1) if not profile.successive_check(d, samples)]
    if failures:
        return False, f"failed for ambient dims {failures}"
    return True, f"argmin k nondecreasing and complete for dims 3..{max_dim}, {samples} samples"


@_check("profile_arcs")
def check_profile_arcs(
    dim: int = 7, samples: int = 2000, overrides: dict[str, float] | None = None
):
    """Arc count, transition count, and volume symmetry of one profile."""
    tol = _tol(overrides, "profile_symmetry")
    _, perims, best, _ = profile._profile_columns(dim, samples)
    arcs = 1 + int(np.count_nonzero(np.diff(best)))
    crossings = profile.transition_volumes(dim)
    # Each perimeter against its mirror about half volume.
    perims = np.array(perims)
    left, right = perims[: samples // 2], perims[::-1][: samples // 2]
    worst = float(np.max(np.abs(left - right) / np.maximum(left, right), initial=0.0))
    ok = arcs == dim and len(crossings) == dim - 1 and worst <= tol
    return ok, (
        f"dim {dim}: {arcs} arcs (want {dim}), {len(crossings)} transitions "
        f"(want {dim - 1}), symmetry defect {worst:.2e} (tol {tol:.0e})"
    )


@_check("stability_equivalence")
def check_stability(overrides: dict[str, float] | None = None):
    """Margin sign agrees with the closed-form latitude interval; the
    three-candidate eigenvalue minimum survives a brute-force search."""
    tol = _tol(overrides, "endpoint_margin")
    rs = np.linspace(0.01, _HALF_PI - 0.01, 1000)
    pairs = [(n1, n2) for n1 in range(1, 9) for n2 in range(1, 10 - n1)]
    even_modes = [
        (k1, k2)
        for k1 in range(7)
        for k2 in range(7)
        if k1 + k2 <= 6 and (k1 + k2) % 2 == 0 and k1 + k2 > 0
    ]
    for n1, n2 in pairs:
        lo, hi = spectrum.stability_interval(n1, n2)
        ends = clifford.CliffordShape(n1, n2, np.array([lo, hi]))
        for end, margin in zip((lo, hi), spectrum.stability_margin(ends)):
            if abs(margin) > tol:
                return False, f"({n1},{n2}) endpoint r={end}: margin {margin:.2e}"
        margins = spectrum.stability_margin(clifford.CliffordShape(n1, n2, rs))
        inside = (lo <= rs) & (rs <= hi)
        wrong = np.where(inside, margins < -tol, margins >= 0.0)
        if wrong.any():
            i = int(np.argmax(wrong))
            sign, side = ("negative", "inside") if inside[i] else ("nonnegative", "outside")
            return False, f"({n1},{n2}) r={rs[i]}: {sign} margin {margins[i]:.2e} {side} interval"
        # Brute force on a thinned grid: the three candidates must
        # already attain the minimum over all low even modes.
        thin = clifford.CliffordShape(n1, n2, rs[::25])
        best = spectrum.first_even_eigenvalue(thin).value
        brute = np.min(
            [spectrum.laplace_eigenvalue(thin, k1, k2) for k1, k2 in even_modes], axis=0
        )
        beaten = brute < best * (1.0 - 1e-14)
        if beaten.any():
            i = int(np.argmax(beaten))
            return False, (
                f"({n1},{n2}) r={thin.r[i]}: brute force {brute[i]} beats candidates {best[i]}"
            )
    return True, (
        f"sign agreement and candidate optimality over {len(pairs)} factor pairs, "
        f"{rs.size} radii"
    )


@_check("algebraic_identities")
def check_identities(overrides: dict[str, float] | None = None):
    """Trace identity, per-curvature quadratic, and Jacobian transport on
    seeded random shapes, drawn as arrays and evaluated per (n1, n2) with
    array latitudes."""
    tol = _tol(overrides, "identity")
    count = 1000
    rng = np.random.default_rng(20240817)
    n1s = rng.integers(0, 7, count)
    n2s = rng.integers(n1s == 0, 7)
    rs = rng.uniform(0.05, _HALF_PI - 0.05, count)
    ts = rng.uniform(0.0, _HALF_PI - rs - 0.01)
    worst = 0.0
    for n1, n2 in sorted(set(zip(n1s.tolist(), n2s.tolist()))):
        pick = (n1s == n1) & (n2s == n2)
        r, t = rs[pick], ts[pick]
        shape = clifford.CliffordShape(n1, n2, r)
        data = clifford.curvature(shape)
        n = shape.n
        trace = data.norm_sq - n + data.beta * n * data.mean
        residuals = [np.abs(trace)]
        for kappa in (data.kappa1, data.kappa2):
            residuals.append(np.abs(kappa * kappa + data.beta * kappa - 1.0))
        moved = clifford.CliffordShape(n1, n2, r + t)
        lhs = clifford.parallel_jacobian(shape, t) * clifford.area_sphere(shape)
        rhs = clifford.area_sphere(moved)
        residuals.append(np.abs(lhs - rhs) / rhs)
        worst = max(worst, float(np.max(residuals)))
    return worst <= tol, (
        f"worst identity residual {worst:.2e} over {count} random shapes (tol {tol:.0e})"
    )


@_check("special_functions")
def check_specfn(overrides: dict[str, float] | None = None):
    """Quadrature vs closed form, and sphere_area against known values and
    its Gamma recurrence."""
    agree_tol = _tol(overrides, "specfn_agree")
    area_tol = _tol(overrides, "sphere_area")
    grid = np.meshgrid(np.arange(11), np.arange(11), (0.1, 0.5, 1.0, 1.5), indexing="ij")
    n1, n2, r = (g.ravel() for g in grid)
    # One batched call per side: the adaptive quadrature, the independent
    # side, refines every point's panels level by level, and the closed
    # form runs one incomplete-beta call.
    quad = specfn.cossin_integral(n1, n2, r)
    closed = specfn.cossin_integral_closed(n1, n2, r)
    worst = float(np.max(np.abs(quad - closed) / np.maximum(np.abs(closed), 1e-300)))
    if worst > agree_tol:
        return False, f"quadrature mismatch {worst:.2e}"
    known = [
        (1, 2.0 * math.pi),
        (2, 4.0 * math.pi),
        (3, 2.0 * math.pi**2),
    ]
    for d, expected in known:
        err = abs(specfn.sphere_area(d) - expected) / expected
        if err > area_tol:
            return False, f"sphere_area({d}) off by {err:.2e}"
    rec_worst = 0.0
    for d in range(2, 61):
        lhs = specfn.sphere_area(d)
        rhs = 2.0 * math.pi * specfn.sphere_area(d - 2) / (d - 1)
        rec_worst = max(rec_worst, abs(lhs - rhs) / rhs)
    return rec_worst <= area_tol, (
        f"quadrature agreement {worst:.2e}, recurrence defect {rec_worst:.2e}"
    )


@_check("willmore_minimum")
def check_willmore_minimum(overrides: dict[str, float] | None = None):
    """Grid minimum of the tube Willmore energy, on energy_minimum's
    default latitude grid, matches the balanced Clifford area; the
    degenerate family is constant."""
    tol = _tol(overrides, "willmore_min")
    max_n = 9
    for n in range(2, max_n + 1):
        energy, k, _ = willmore.energy_minimum(n)
        target = willmore.width_candidate(n)
        err = abs(energy - target) / target
        if err > tol or k not in (n // 2, (n + 1) // 2):
            return False, f"n={n}: min {energy} at k={k}, want {target} near balanced k"
        bound = 2.0 * specfn.sphere_area(n)
        rs = np.linspace(0.05, _HALF_PI - 0.05, 101)
        energies = willmore.tube_willmore_energy(clifford.CliffordShape(0, n, rs))
        const_err = float(np.max(np.abs(energies - bound) / bound))
        if const_err > 1e-10:
            return False, f"n={n}: k=0 family drifts from 2|S^n| by {const_err:.2e}"
    return True, f"energy minima match width candidate to {tol:.0e} for n=2..{max_n}"


@_check("area_chain")
def check_area_chain(overrides: dict[str, float] | None = None):
    """Inequality chain, log-convexity, and the finite-difference probe of
    the second log derivative."""
    fd_tol = _tol(overrides, "logf_fd")
    ns = np.arange(2, 51)
    holds = willmore.verify_area_chain(ns)
    if not holds.all():
        return False, f"chain fails at n={ns[np.argmin(holds)]}"
    # Probe where the second derivative is O(0.05) or larger; at a 1e-4
    # step the difference quotient's rounding floor is ~1e-6 absolute, so
    # smaller true values cannot be resolved to 1e-5 relative.
    worst = 0.0
    for n in (2, 3, 7):
        for x in (0.3, 0.7, 1.3):
            h = 1e-4
            fd = (
                math.log(willmore.clifford_area_f(n, x + h))
                - 2.0 * math.log(willmore.clifford_area_f(n, x))
                + math.log(willmore.clifford_area_f(n, x - h))
            ) / (h * h)
            exact = willmore.logf_second_derivative(n, x)
            worst = max(worst, abs(fd - exact) / abs(exact))
    return worst <= fd_tol, (
        f"chain and convexity hold for n=2..{ns[-1]}; fd defect {worst:.2e} (tol {fd_tol:.0e})"
    )


@_check("rp3_crosscheck")
def check_rp3(overrides: dict[str, float] | None = None):
    """Classified RP^3 behavior: torus beats sphere at the half volume,
    spheres win at small volume."""
    tol = _tol(overrides, "rp3_perimeter")
    total = profile.total_volume(3)
    half = total / 2.0
    point = profile.profile_at(3, half)
    torus_ok = point.best_k == 1 and abs(point.perimeter - math.pi**2) <= tol
    # Elementary geodesic-sphere candidate: solve 2r - sin 2r = pi/2 for the
    # half-volume ball radius, then evaluate its boundary area.
    lo, hi = 0.0, _HALF_PI
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * mid - math.sin(2.0 * mid) < _HALF_PI:
            lo = mid
        else:
            hi = mid
    sphere_perimeter = 4.0 * math.pi * math.sin(0.5 * (lo + hi)) ** 2
    beats = point.perimeter < sphere_perimeter
    small = profile.profile_at(3, 0.02 * total)
    return torus_ok and beats and small.best_k == 0, (
        f"half volume: k={point.best_k} perimeter {point.perimeter:.12f} "
        f"vs sphere {sphere_perimeter:.6f}; small volume k={small.best_k}"
    )


def run_all(
    max_dim: int = 10,
    samples: int = 2000,
    overrides: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Full verification battery, ordered as the criteria are stated."""
    _checked(overrides)  # before any check runs
    return [
        check_successive(max_dim, samples),
        check_profile_arcs(min(7, max_dim), samples, overrides),
        check_stability(overrides),
        check_identities(overrides),
        check_specfn(overrides),
        check_willmore_minimum(overrides),
        check_area_chain(overrides),
        check_rp3(overrides),
    ]
