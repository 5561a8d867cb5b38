"""Rewriting bracket polynomials into the non-crossing basis.

Run:  python demos/02_straightening_tour.py
"""
from rumer import Edge, is_rumer, parse, plucker_expand, straighten
from rumer.oracle import expand

# A bracket [i,j] is the 2x2 determinant of the coordinate columns of
# vertices i and j.  A product of brackets is drawn as a chord diagram; when
# two chords cross, the quadratic exchange rule replaces the pair by the two
# non-crossing pairs on the same four vertices.

print("the exchange rule on one crossing pair:")
print("  [1,3][2,4]  ->", plucker_expand(Edge(1, 3), Edge(2, 4)))
print()

# `straighten` applies the rule until every monomial is non-crossing.
examples = [
    ("[1,3][2,4]", 4),
    ("[1,4][2,3]", 4),                               # already non-crossing
    ("[1,2][3,4] - [1,3][2,4] + [1,4][2,3]", 4),     # the identity itself
    ("[1,3][1,3][2,4]", 4),                          # parallel bonds
    ("[1,4][2,5][3,6]", 6),                          # three mutual crossings
]
for text, n in examples:
    p = parse(text, n)
    flat = straighten(p)
    print(f"  straighten {text!r}  (n={n})")
    print(f"    = {flat}")
print()

# The result is not taken on faith: expanding both sides into the 2n
# coordinate variables must give identical polynomials, and every surviving
# term must be non-crossing.
p = parse("[1,4][2,5][3,6]", 6)
flat = straighten(p)
print("independent expansion check for [1,4][2,5][3,6]:")
print("  expansions equal:", expand(flat) == expand(p))
print("  all terms non-crossing:", all(is_rumer(t) for t in flat.terms))
print("  term count:", len(flat.terms))
print()

# Straightening is linear and never changes any vertex degree, so the
# non-crossing monomials of each multidegree form a basis of their graded
# piece.  Coefficients stay integers throughout.
q = 3 * parse("[1,3][2,4]", 4) - parse("[1,2][3,4]", 4)
print("linearity: straighten(3*[1,3][2,4] - [1,2][3,4]) =", straighten(q))
