"""Pinched forms drawn in split coordinates.

A form is drawn in the adapted frame nu1 = e_1 with the pinching budget
B = (c - 1/n)|H|^2 - d split into the shares of |h_ring|^2, |A^-|^2 and
f = c|H|^2 - |A|^2 - d, so it is pinched by construction.  These tests check
that the shares reach the edges where the reaction estimates are tight, that
the split code recovers the drawn split, that the computed f stays positive
at every admitted d, and that the draws have the power to catch a wrong
coefficient of 4.12.
"""

import functools

import numpy as np
import pytest

import pinchflow.lemmas as lemmas
from pinchflow.campaign import run_campaign
from pinchflow.forms import Dims, principal_decompose
from pinchflow.reaction import boundary_reaction_bound
from pinchflow.samplers import (
    F_MIN,
    MAX_D,
    SamplerSpec,
    sample_boundary,
    sample_form,
)
from tests.test_substreams import form_row, scalar_split_draw

DRAWS = 4096
SPEC = SamplerSpec(Dims(8, 3), c=1 / 6, d=0.0, seed=1)


@functools.cache
def split_of_draws():
    """The principal split of the first ``DRAWS`` forms of ``SPEC`` and their
    budgets B."""
    dec = principal_decompose(sample_form(SPEC, range(DRAWS)))
    return dec, (SPEC.c - 1 / 8) * dec.H.norm2 - SPEC.d


def test_shares_reach_the_edges():
    dec, budget = split_of_draws()
    f = SPEC.c * dec.H.norm2 - dec.a2 - SPEC.d
    a_share, f_share = dec.a_minus2 / budget, f / budget
    assert a_share.min() <= 1e-9 and a_share.max() >= 0.9
    assert f_share.min() >= F_MIN * (1 - 1e-9) and f_share.min() <= F_MIN * (1 + 1e-6)
    assert f_share.max() >= 0.9


@pytest.mark.parametrize("dims, c", [(Dims(8, 3), 1 / 6), (Dims(16, 16), 1 / 14),
                                     (Dims(5, 1), 4 / 15)])
@pytest.mark.parametrize("d", [0.0, 1.0])
def test_principal_split_recovers_the_drawn_split(dims, c, d):
    spec = SamplerSpec(dims, c=c, d=d, seed=3)
    trials = range(64)
    dec = principal_decompose(sample_form(spec, trials))
    f = c * dec.H.norm2 - dec.a2 - d
    for i, trial in enumerate(trials):
        _, split = scalar_split_draw(*form_row(3, trial, dims), dims, c, d)
        tol = 1e-12 * split["budget"]
        assert abs(dec.a_minus2[i] - split["a_minus2"]) <= tol
        assert abs(dec.h_ring2[i] - split["h_ring2"]) <= tol
        assert abs(f[i] - split["f"]) <= tol


@pytest.mark.parametrize("dims, c, trials", [(Dims(8, 3), 1 / 6, DRAWS),
                                             (Dims(16, 16), 1 / 14, 256)])
@pytest.mark.parametrize("d", [0.0, 1.0, 1e8, 1e30, MAX_D])
def test_computed_f_is_positive_at_every_d(dims, c, trials, d):
    spec = SamplerSpec(dims, c=c, d=d, seed=1)
    form, boundary = sample_boundary(spec, range(trials))
    dec = principal_decompose(form)
    assert np.all(c * dec.H.norm2 - dec.a2 - d > 0)
    # raises unless every boundary form sits on |A|^2 = c|H|^2 - d
    boundary_reaction_bound(principal_decompose(boundary), c, lemmas.boundary_offset(d))


def test_4_12_is_nearly_tight():
    dec, _ = split_of_draws()
    (check,) = lemmas.reaction_checks(["4.12"], dec, SPEC.c, SPEC.d)
    relative = check.slack / np.maximum(abs(check.lhs), abs(check.rhs))
    assert 0 <= relative.min() <= 0.01


def test_draws_catch_a_wrong_4_12_coefficient(monkeypatch):
    # the coefficient nc/(nc - 1) of |h_ring|^2 |A^-|^2 in 4.12, 1% too large
    assert run_campaign(SPEC, ["4.12"], DRAWS)[0].violations == 0
    exact = lemmas.reaction_checks

    def mutant(ids, dec, c, d, delta=0.5):
        nc = dec.dims.n * c
        return [lemmas.InequalityCheck(check.lemma_id,
                                       check.lhs + 0.01 * nc / (nc - 1) * dec.h_ring2 * dec.a_minus2,
                                       check.rhs) if check.lemma_id == "4.12" else check
                for check in exact(ids, dec, c, d, delta)]

    monkeypatch.setattr(lemmas, "reaction_checks", mutant)
    assert run_campaign(SPEC, ["4.12"], DRAWS)[0].violations > 100
