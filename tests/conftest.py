"""Fixtures shared by the test modules."""
import pytest

import rumer.oracle
from rumer.brackets import BracketPolynomial


@pytest.fixture
def straighten_each(monkeypatch):
    """Patch verify's block straightener, oracle._normal_forms, to apply a
    one-polynomial straightener, such as a broken wrapper of
    rumer.brackets.straighten, to each scheme of a block on its own.  A
    straightener that raises on a scheme fails that scheme only."""

    def patch(straighten):
        def normal_forms(schemes):
            forms = []
            for scheme in schemes:
                try:
                    flat = straighten(BracketPolynomial.monomial(scheme.n, scheme.edges))
                except Exception as exc:
                    forms.append(exc)
                else:
                    forms.append(dict(flat.terms))
            return forms, 0

        monkeypatch.setattr(rumer.oracle, "_normal_forms", normal_forms)

    return patch
