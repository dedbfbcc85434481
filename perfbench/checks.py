"""Seeded inputs and their dense references; the reply and count checks.

Every input the program sees is generated here from the benchmark seed.
References are dense factorizations computed in setup: one LU of the
``laplace`` operator (it serves every ε, since ε only changes the
compression, not the operator) and one Cholesky of the GP covariance.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

#: The problem every ``laplace`` workload solves (fingerprints differ by ε).
LAPLACE = {"kernel": "laplace", "n": 2000, "nb": 256}
#: The GP fingerprint ``gp_window`` serves.
GP = {"kind": "gp", "kernel": "sqexp", "n": 2000, "length": 0.3, "eps": 1e-4}
GP_SIGNAL, GP_NOISE = 1.0, 0.1

#: Largest relative forward error a reply may have, per problem family
#: (10 times the ACA tolerance the fingerprints are built with).
ERROR_LIMIT = {"laplace": 1e-5, "gp": 1e-3}


def relative_error(x: np.ndarray, ref: np.ndarray) -> float:
    x = np.asarray(x)
    if x.shape != ref.shape or not np.all(np.isfinite(x)):
        return math.inf
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


class Checker:
    """Compares replies with reference solutions; keeps the running maximum
    and counts replies over the limit."""

    def __init__(self, refs: np.ndarray, limit: float) -> None:
        self.refs = refs  # (pool, n): one reference solution per RHS row
        self.limit = limit
        self.err_max = 0.0
        self.checked = 0
        self.bad = 0

    def check(self, j: int, x) -> float:
        err = relative_error(x, self.refs[j])
        self.checked += 1
        self.err_max = max(self.err_max, err)
        if not err <= self.limit:
            self.bad += 1
        return err


def laplace_inputs(seed: int, pool: int):
    """``(rhs, refs)``: ``pool`` seeded right-hand sides of the laplace
    operator and their dense-LU solutions, one per row."""
    from repro.geometry import cylinder_cloud, make_kernel

    pts = cylinder_cloud(LAPLACE["n"])
    a = make_kernel("laplace", pts)(pts, pts)
    lu = sla.lu_factor(a, check_finite=False)
    del a
    rng = np.random.default_rng([seed, 1])
    rhs = rng.standard_normal((LAPLACE["n"], pool))
    refs = sla.lu_solve(lu, rhs, check_finite=False)
    return np.ascontiguousarray(rhs.T), np.ascontiguousarray(refs.T)


def gp_test_points(seed: int, n_theta: int = 64, n_z: int = 64) -> np.ndarray:
    """Seeded test points on the training cylinder: one uniform draw per
    cell of an ``n_theta x n_z`` grid over the surface (stratified, so every
    region is probed and the worst-case column is sampled on every seed)."""
    rng = np.random.default_rng([seed, 2])
    m = n_theta * n_z
    i, j = np.meshgrid(np.arange(n_theta), np.arange(n_z), indexing="ij")
    theta = (i.ravel() + rng.uniform(size=m)) * (2 * math.pi / n_theta)
    height = 4 * math.pi  # cylinder_cloud's default: twice the circumference
    z = (j.ravel() + rng.uniform(size=m)) * (height / n_z)
    return np.stack([np.cos(theta), np.sin(theta), z], axis=1)


def gp_inputs(seed: int):
    """``(y, rhs, refs, mean_ref)`` for ``gp_window``: seeded training
    targets, the cross-covariance columns of seeded test points, their
    dense-Cholesky solutions (one per row) and the dense posterior means."""
    from repro.geometry import make_kernel
    from repro.gp.data import synthetic_gp_data

    x, y, _, _ = synthetic_gp_data(GP["n"], 1, noise=GP_NOISE, seed=seed)
    kern = make_kernel(GP["kernel"], x, length=GP["length"], signal=GP_SIGNAL,
                       nugget=GP_NOISE**2)
    chol = sla.cho_factor(kern(x, x), lower=True, check_finite=False)
    rhs = np.asarray(kern(x, gp_test_points(seed)))
    refs = sla.cho_solve(chol, rhs, check_finite=False)
    return y, np.ascontiguousarray(rhs.T), np.ascontiguousarray(refs.T), refs.T @ y


def zipf_choices(rng: np.random.Generator, k: int, size: int, s: float = 1.0) -> np.ndarray:
    """``size`` Zipf(``s``) draws over ``k`` items (item 0 the hottest)."""
    p = 1.0 / np.arange(1, k + 1) ** s
    return rng.choice(k, size=size, p=p / p.sum())


def reconcile(client: dict, server: dict) -> list[str]:
    """Disagreements between the client's counts and the program's.

    ``client``: attempted, completed, failed, rejected.  ``server``: the
    window delta of ``stats()["requests"]`` (admitted, rejected, completed,
    failed).
    """
    problems = []
    if client["attempted"] != server["admitted"] + server["rejected"]:
        problems.append(
            f"client attempted {client['attempted']} != server admitted "
            f"{server['admitted']} + rejected {server['rejected']}")
    if client["completed"] + client["failed"] + client["rejected"] != client["attempted"]:
        problems.append(
            f"completed {client['completed']} + failed {client['failed']} + "
            f"rejected {client['rejected']} != attempted {client['attempted']}")
    if client["completed"] != server["completed"]:
        problems.append(
            f"client completed {client['completed']} != server completed "
            f"{server['completed']}")
    return problems
