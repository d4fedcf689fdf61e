import dataclasses

import numpy as np
import pytest

from sasc.problems import (gen_separable_svm, make_min_norm_hyperplane_problem,
                           make_svm_problem)
from sasc.smoothing import CertificateInputs, RowConstraintSet


@pytest.fixture
def min_norm_toy():
    """min (1/2)||x||^2 s.t. x_1 = 1, with its exact saddle-point certificate."""
    return make_min_norm_hyperplane_problem()


def bp_dual_certificate(instance):
    """Exact saddle-point certificate of a planted basis-pursuit instance.

    With n >= d full-rank rows the constraints alone pin the planted x*, so
    P* = ||x*||_1, and any y with (1/n) A^T y = -g, g in the subdifferential
    of ||.||_1 at x*, is a dual solution. For g = sign(x*) the least-norm such
    y is -n A (A^T A)^{-1} g; with xi uniform over the n rows its norm is
    ||y*||^2 = E[y_xi^2] = n g^T (A^T A)^{-1} g. Returns (y, CertificateInputs).
    """
    rows, x_star = instance.rows, instance.x_star
    n = rows.shape[0]
    g = np.sign(x_star)
    u = np.linalg.solve(rows.T @ rows, g)
    cert = CertificateInputs(x_star=x_star,
                             p_star=float(np.sum(np.abs(x_star))),
                             y_star_norm=float(np.sqrt(n * (g @ u))))
    return -n * (rows @ u), cert


def dense_rows(dataset):
    """A LabeledSparseDataset's rows as a dense (n, d) array, row by row."""
    dense = np.zeros((len(dataset), dataset.dim))
    for i in range(len(dataset)):
        cols, vals = dataset.row(i)
        dense[i, cols] = vals
    return dense


def full_storage_svm(seed):
    """The svm problem on a dataset that stores every entry, and a copy of
    it whose constraint set holds the same rows as a dense array."""
    ds = gen_separable_svm(12, 300, margin=0.3, seed=seed)
    sparse = make_svm_problem(ds)
    dense = dataclasses.replace(sparse, constraints=RowConstraintSet.normalized(
        ds.labels[:, None] * dense_rows(ds), 1.0, np.inf))
    return sparse, dense


def loglog_slope(samples, values, m_min=1000):
    samples = np.asarray(samples, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (samples >= m_min) & (values > 0)
    return float(np.polyfit(np.log(samples[keep]), np.log(values[keep]), 1)[0])


def least_squares_grad_one(instance):
    """Gradient of (1/2)(a_i^T x - b_i)^2 on one drawn ConstraintSample.

    The per-sample formula r (r^T x - b_i), written out as the reference
    that the least-squares problem's batch gradient must reproduce.
    """
    b = instance.targets

    def grad(x, sample):
        r = sample.row
        return r * (float(r @ x) - b[sample.index])

    return grad
