"""The vertex-merge map behind the counting recurrence.

Run:  python demos/04_merge_bijection_tour.py
"""
import json

from rumer import (
    RumerDiagram,
    enumerate_rumer_by_multidegree,
    psi,
    psi_section,
    triangle_range,
    verify_psi_bijection,
)

# Merging the last vertex into its predecessor (dropping the bonds that join
# them) sends a diagram on n+1 vertices to one on n vertices.  On
# non-crossing diagrams this is a bijection onto the union over all
# even-triangle-compatible merged degrees, which is exactly why the counts
# satisfy the branching recurrence.

degrees = (1, 1, 1, 1)
print(f"diagrams with degrees {degrees} and where merging sends them:")
for diagram in enumerate_rumer_by_multidegree(degrees):
    merged = psi(diagram)
    print(f"  {diagram}  ->  {merged.scheme}   (merged degree {merged.mu_n}, "
          f"{merged.m_join} joining bond(s) removed)")
print()

# The even-triangle range for the last two degrees (1, 1) is {2, 0}: one
# target diagram lives in each block, and the map hits both exactly once.
print("even-triangle range for (1,1):", list(triangle_range(1, 1)))
print()

# The section rebuilds the unique non-crossing preimage.  The bond ends at
# the last vertex are ordered by far endpoint ascending from vertex 1; the
# ones nearest the inserted vertex (going clockwise) move to it.
G = RumerDiagram(3, [(1, 3), (2, 3)])
lifted = psi_section(G, 1, 1)
print(f"section of {G} with targets (1, 1): {lifted}")
print("merging back:", psi(lifted).scheme)
print()

# The exhaustive verifier checks injectivity, the image, the section, and
# the preimage-count bound over all valence schemes (crossings included).
for degrees in [(1, 1, 1, 1), (2, 2, 1, 1), (0, 0, 1, 1), (2, 1, 2, 1)]:
    report = verify_psi_bijection(degrees)
    print(f"verify_psi_bijection{degrees}:", json.dumps(report))
