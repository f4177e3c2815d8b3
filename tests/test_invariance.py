"""Frame invariance and homogeneity of every inequality of the lemma table.

Every quantity in the paper is a norm of tensors, so both sides of each
inequality are unchanged when its inputs are rotated by O(n) on their
tangent indices or by O(m) on their normal index; the k matrices of ``li``
sit in that slot and mix under O(k).  Both sides also scale by
lam^degree, with the ``degree`` column of :data:`pinchflow.lemmas.LEMMAS`:
an id that reads a derivative sample scales the derivative tensor and w by
lam at a fixed form, and keeps both sides when its forms scale by lam and
d by lam^2 at fixed tensors; any other id scales its forms and matrices by
lam and d by lam^2.  So every id scales by lam^degree when all its inputs
scale by lam and d by lam^2 together.  The test iterates over the table,
so a new entry is covered as it is added.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from pinchflow.campaign import TrialInputs, evaluate_trial, sample_trial_inputs
from pinchflow.forms import Dims
from pinchflow.lemmas import LEMMAS, default_constants
from pinchflow.samplers import SamplerSpec

TRIALS = 8
REL = 1e-12
D = 0.3  # the pinching constant d; the boundary forms sit at |A|^2 = c|H|^2 - d
# the tangent indices of each input, which trail its normal (or matrix) index
TANGENT_AXES = {"form": 2, "boundary_form": 2, "matrices": 2, "grad_tensor": 3, "w": 1}
DERIVATIVE = {"grad_tensor", "w"}


def orthogonal(rng, size):
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    return q * np.sign(np.diag(r))


def apply(a, rot, axis):
    """``rot`` applied to index ``axis`` of the stack ``a``."""
    return np.moveaxis(np.tensordot(a, rot, axes=([axis], [1])), -1, axis)


def resymmetrized(name, a):
    """``a`` made exactly symmetric in its tangent indices again."""
    if TANGENT_AXES[name] == 2:
        return 0.5 * (a + a.swapaxes(-1, -2))
    if TANGENT_AXES[name] == 3:
        lead = a.ndim - 3
        perms = itertools.permutations(range(lead, lead + 3))
        return sum(a.transpose(*range(lead), *perm) for perm in perms) / 6.0
    return a


def transformed(inputs, transform):
    return TrialInputs.of_arrays(inputs.dims, (
        (name, resymmetrized(name, transform(name, a))) for name, a in inputs.arrays()
    ))


def tangent_rotated(inputs, rot):
    def transform(name, a):
        for axis in range(-TANGENT_AXES[name], 0):
            a = apply(a, rot, axis)
        return a
    return transformed(inputs, transform)


def normal_rotated(inputs, rng):
    """One rotation of the normal index of every input, and of the matrix
    index of ``li``'s matrices, by the size of that index."""
    rotations = {}

    def transform(name, a):
        axis = -TANGENT_AXES[name] - 1
        size = a.shape[axis]
        if size not in rotations:
            rotations[size] = orthogonal(rng, size)
        return apply(a, rotations[size], axis)
    return transformed(inputs, transform)


def sides(lemma_id, inputs, spec):
    check = evaluate_trial([lemma_id], inputs, spec)
    return check.lhs[0], check.rhs[0]


def assert_close(got, want, label):
    scale = np.maximum(1.0, np.maximum(np.abs(want[0]), np.abs(want[1])))
    for side, g, w in zip(("lhs", "rhs"), got, want):
        err = np.max(np.abs(g - w) / scale)
        assert err <= REL, f"{label}: {side} moves by {err:.3g} of its scale"


@pytest.mark.parametrize("n, m", [(5, 2), (8, 3)])
def test_every_lemma_is_frame_invariant_and_homogeneous(n, m):
    dims = Dims(n, m)
    c, delta, eps0 = default_constants(list(LEMMAS), n)
    spec = SamplerSpec(dims, c=c, d=D, seed=n * 10 + m, delta=delta, eps0=eps0)
    kinds = set().union(*(lemma.kinds for lemma in LEMMAS.values()))
    inputs = sample_trial_inputs(spec, range(TRIALS), kinds)
    rng = np.random.default_rng(n * 10 + m)
    rotations = {"tangent": tangent_rotated(inputs, orthogonal(rng, n)),
                 "normal": normal_rotated(inputs, rng)}
    lam = 1.5
    for lemma_id, lemma in LEMMAS.items():
        base = sides(lemma_id, inputs, spec)
        for name, rotated in rotations.items():
            assert_close(sides(lemma_id, rotated, spec), base, f"{lemma_id} {name}")
        derivative = "grad" in lemma.kinds
        scaled = transformed(inputs, lambda name, a: (
            lam * a if (name in DERIVATIVE) == derivative else a))
        factor = 1.0 if derivative else lam**2
        assert_close(sides(lemma_id, scaled, replace(spec, d=D * factor)),
                     tuple(lam**lemma.degree * side for side in base), f"{lemma_id} scaling")
        if derivative:
            formed = transformed(inputs, lambda name, a: a if name in DERIVATIVE else lam * a)
            assert_close(sides(lemma_id, formed, replace(spec, d=D * lam**2)), base,
                         f"{lemma_id} form scaling")
