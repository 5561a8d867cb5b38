"""Independence and spanning, verified by exact rank computation.

Run:  python demos/03_basis_verification_tour.py
"""
import json

from rumer import BracketPolynomial, enumerate_rumer, enumerate_valence_schemes, rho_closed
from rumer.oracle import basis_ok, expand, rank_of_span, verify_basis

# Expanding every bracket monomial into the 2n coordinate variables turns
# questions about spans into exact integer linear algebra.  On 4 vertices
# with 2 bonds there are 21 possible schemes but only 20 independent
# expansions: the single crossing scheme is a combination of two others.

schemes = list(enumerate_valence_schemes(4, 2))
expansions = [expand(BracketPolynomial.monomial(4, s.edges)) for s in schemes]
print("4 vertices, 2 bonds:")
print("  schemes:", len(schemes))
print("  rank of all expansions:", rank_of_span(expansions))
print("  closed-formula count  :", rho_closed(4, 2))

rumer_diagrams = enumerate_rumer(4, 2)
rumer_expansions = [expand(BracketPolynomial.monomial(4, d.edges)) for d in rumer_diagrams]
print("  non-crossing diagrams :", len(rumer_diagrams))
print("  rank of their expansions:", rank_of_span(rumer_expansions))
print()

# verify_basis bundles the whole cross-check for one (n, m) cell:
# independence of the non-crossing monomials, spanning by all schemes, and
# the exchange rule that straightens every crossing scheme, one at a time.
for n, m in [(3, 2), (4, 2), (2, 3), (5, 2)]:
    report = verify_basis(n, m)
    status = "pass" if basis_ok(report) else "FAIL"
    print(f"verify_basis({n}, {m}): {status}")
    print(" ", json.dumps(report))
