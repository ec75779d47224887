"""Output checks for every benchmark op, written without the library.

Each check takes an op's output and returns ``None`` when it is right, or a
one-line reason when it is not.  The expected values are closed forms
computed here with numpy and the standard library, so a defect in a
rotorsusy module cannot also hide in its check.  Checks run after the
timed region of a pass.
"""

from math import exp, lgamma, log, pi

import numpy as np


def _complex(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _envelope(doc, kind):
    if doc.get("kind") != kind:
        return f"envelope kind {doc.get('kind')!r}, expected {kind!r}"
    return None


def verify(doc):
    """The report says every check passed."""
    bad = _envelope(doc, "report")
    if bad:
        return bad
    payload = doc["payload"]
    if payload.get("all_passed") is not True:
        failing = [c["name"] for c in payload.get("checks", []) if c.get("status") != "pass"]
        return f"report not all_passed; failing checks: {', '.join(failing) or 'none listed'}"
    return None


def spectrum(doc, j):
    """Q has -(j+1/2) with multiplicity j+1 and +(j+1/2) with multiplicity j."""
    bad = _envelope(doc, "spectrum")
    if bad:
        return bad
    ev = doc["payload"]["eigenvalues"]
    mult = doc["payload"]["multiplicities"]
    want_ev = [-(j + 0.5), j + 0.5] if j > 0 else [-0.5]
    want_mult = [j + 1, j] if j > 0 else [1]
    if len(ev) != len(want_ev) or list(mult) != want_mult:
        return f"multiplicities {mult} at eigenvalues {ev}, expected {want_mult} at {want_ev}"
    dev = max(abs(a - b) for a, b in zip(ev, want_ev))
    if dev > 1e-8:
        return f"eigenvalues off by {dev:.3e} (limit 1e-8)"
    return None


def basis(doc, family, j):
    """An exported F or Z basis: j+1 orthonormal vectors with the expected labels."""
    bad = _envelope(doc, "basis")
    if bad:
        return bad
    labels = doc["payload"]["labels"]
    vectors = _complex(doc["payload"]["vectors"])
    if vectors.shape != (j + 1, 2 * j + 1) or len(labels) != j + 1:
        return (f"{len(labels)} labels and vectors of shape {vectors.shape}, "
                f"expected {j + 1} x {2 * j + 1}")
    eig_key = "k3" if family == "F" else "k1"
    for k, lab in enumerate(labels):
        want = {"k": k, "q": -(j + 0.5), eig_key: (-1.0) ** k * (k + 0.5)}
        if any(key not in lab or abs(lab[key] - val) > 1e-12 for key, val in want.items()):
            return f"label {k} is {lab}, expected {want}"
    gram = vectors.conj() @ vectors.T
    res = float(np.max(np.abs(gram - np.eye(j + 1))))
    if res > 1e-10:
        return f"orthonormality residual {res:.3e} (limit 1e-10)"
    return None


def decompose(report, j):
    """Block dims (j+1, j) and every completeness / off-block residual <= 1e-10."""
    if report.get("dims") != [j + 1, j]:
        return f"dims {report.get('dims')}, expected {[j + 1, j]}"
    residuals = {"completeness": report["completeness_residual"]}
    residuals.update({f"offblock {k}": v for k, v in report["offblock_residuals"].items()})
    worst = max(residuals, key=residuals.get)
    if not residuals[worst] <= 1e-10:
        return f"{worst} residual {residuals[worst]:.3e} (limit 1e-10)"
    return None


def overlaps(doc):
    """Both routes unitary to 1e-9 and agreeing to 1e-8."""
    bad = _envelope(doc, "overlaps")
    if bad:
        return bad
    p = doc["payload"]
    for route in ("integral", "recurrence"):
        res = p.get(f"unitarity_residual_{route}")
        if res is None or not res <= 1e-9:
            return f"{route} unitarity residual {res} (limit 1e-9)"
    if not p.get("max_deviation", float("inf")) <= 1e-8:
        return f"routes deviate by {p.get('max_deviation')} (limit 1e-8)"
    return None


def weights(doc, n):
    """N+1 derived weights, all positive, summing to 1 within 1e-10."""
    bad = _envelope(doc, "weights")
    if bad:
        return bad
    w = np.asarray(doc["payload"]["derived"], dtype=float)
    if w.shape != (n + 1,):
        return f"{w.size} weights, expected {n + 1}"
    if np.any(w <= 0):
        return f"{int(np.sum(w <= 0))} non-positive weight(s)"
    if abs(w.sum() - 1.0) > 1e-10:
        return f"weights sum to 1 {w.sum() - 1.0:+.3e} (limit 1e-10)"
    return None


def recurrence_closed_form(n):
    """Recurrence data of the size-(N+1) family, from the closed form."""
    k = np.arange(n + 1)
    a = ((-1.0) ** (k + n + 1) * (n + 1) + k + 1) / 4.0
    c = ((-1.0) ** (n + k) * (n + 1) - k) / 4.0
    c[0] = 0.0
    return a, c, -(a + c), a[:-1] * c[1:]


def coeffs(doc, n):
    """A, C and the monic recurrence coefficients equal their closed forms."""
    bad = _envelope(doc, "recurrence")
    if bad:
        return bad
    p = doc["payload"]
    for key, want in zip(("A", "C", "monic_b", "monic_c"), recurrence_closed_form(n)):
        got = np.asarray(p[key], dtype=float)
        if got.shape != want.shape:
            return f"{key} has {got.size} entries, expected {want.size}"
        dev = float(np.max(np.abs(got - want)))
        if dev > 1e-12 * max(1.0, float(np.max(np.abs(want)))):
            return f"{key} deviates from the closed form by {dev:.3e}"
    return None


def values(doc, n):
    """Grid x_k in closed form, P_0 = 1, and every row obeys the monic three-term recurrence."""
    bad = _envelope(doc, "recurrence")
    if bad:
        return bad
    p = doc["payload"]
    k = np.arange(n + 1)
    x = np.asarray(p["x"], dtype=float)
    want_x = (-1.0) ** k * (k / 2.0 + 0.25) - 0.25
    if x.shape != want_x.shape or np.max(np.abs(x - want_x)) > 1e-14:
        return "grid x_k differs from (-1)^k (k/2 + 1/4) - 1/4"
    vals = np.asarray(p["P"], dtype=float)
    if vals.shape != (n + 2, n + 1) or not np.all(np.isfinite(vals)):
        return f"P has shape {vals.shape} (expected {(n + 2, n + 1)}) or non-finite entries"
    if np.any(vals[0] != 1.0):
        return "P_0 is not identically 1"
    _, _, b, c = recurrence_closed_form(n)
    for i in range(n + 1):
        prev = vals[i - 1] if i else np.zeros(n + 1)
        ci = c[i - 1] if i else 0.0
        step = (x - b[i]) * vals[i]
        want = step - ci * prev
        scale = np.abs(step) + abs(ci) * np.abs(prev)
        if np.any(np.abs(vals[i + 1] - want) > 1e-12 * np.maximum(scale, 1e-300)):
            return f"P_{i + 1} does not follow the three-term recurrence"
    return None


def mu(j):
    """Norm of sin(theta)^j e^{i j phi} on the unit sphere: sqrt(4 pi 2^2j (j!)^2 / (2j+1)!)."""
    return exp(0.5 * (log(4 * pi) + 2 * j * log(2.0) + 2 * lgamma(j + 1) - lgamma(2 * j + 2)))


def projection(coeffs, j, a, b):
    """Projection of a (x+iy)^j + b (x-iy)^j: a (-1)^j mu_j at m=j, b mu_j at m=-j, 0 elsewhere."""
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (2 * j + 1,):
        return f"{c.size} coefficients, expected {2 * j + 1}"
    want = np.zeros(2 * j + 1, dtype=complex)
    want[2 * j] = a * (-1) ** j * mu(j)
    want[0] = b * mu(j)
    rel = float(np.max(np.abs(c - want)) / np.max(np.abs(want)))
    if not rel <= 1e-10:
        return f"relative deviation {rel:.3e} from the closed-form projection (limit 1e-10)"
    return None
