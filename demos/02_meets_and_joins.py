"""Meets always exist; joins need an upper-bound witness.

The meet of A and B is the sum of λ P over their common eigenvectors
with eigenvalue λ ≠ 0: for each eigenvalue λ of A, the directions of its
eigenspace where B - A vanishes. These are exactly the directions of
ran A  ∩  ran B  ∩  ker(A - B) that reduce B. No upper bound needed.

Joins are different: the join of a family below C is C composed with the
join of the members' range projections, but deciding whether an upper
bound exists at all is not part of the calculus, so callers supply one.
"""

import numpy as np

from starorder import (
    HermitianOperator,
    join_bounded,
    logical_le,
    meet,
    meet_bounded,
    op_equal,
    proj_join,
    range_projector,
)

A = HermitianOperator.diagonal([1, 2, 0])
B = HermitianOperator.diagonal([1, 5, 7])

M = meet(A, B)
print("meet(diag(1,2,0), diag(1,5,7)) =", M.entries.real.diagonal())
print("  below A:", logical_le(M, A), " below B:", logical_le(M, B))

# a genuinely non-commuting pair: the agreement kernel is trivial
X = HermitianOperator.diagonal([1, 0])
Y = HermitianOperator([[0, 1], [1, 0]])
print("\nmeet(diag(1,0), flip) =", np.round(meet(X, Y).entries.real, 12))

# two operators agreeing on a shared spectral block meet exactly there
rng = np.random.default_rng(7)
z = rng.standard_normal((4, 4))
v, _ = np.linalg.qr(z)
shared = [3.0, -1.0]
A2 = HermitianOperator((v * np.array(shared + [5.0, 2.0])) @ v.T)
B2 = HermitianOperator((v * np.array(shared + [-4.0, 1.0])) @ v.T)
M2 = meet(A2, B2)
expected = HermitianOperator((v * np.array(shared + [0.0, 0.0])) @ v.T)
print("shared-block meet recovered exactly:", op_equal(M2, expected))

# bounded joins: family members C P_i under the witness C
C = HermitianOperator.diagonal([1, 2, 3])
fam = [HermitianOperator.diagonal([1, 0, 0]), HermitianOperator.diagonal([0, 2, 0])]
J = join_bounded(fam, C)
print("\njoin of diag(1,0,0), diag(0,2,0) below diag(1,2,3):", J.entries.real.diagonal())
print("meet_bounded agrees with the total meet:", op_equal(meet_bounded(fam, C), meet(*fam)))

# the range projection of the join is the projector join
lhs = range_projector(J)
rhs = proj_join(range_projector(fam[0]), range_projector(fam[1]))
print("P_(A v B) == P_A v P_B:", op_equal(lhs, rhs))
