"""adic-kit: exact computer algebra for p-adic Tate algebras.

Builds finitely presented algebras over p-adic Tate algebras (with exact
rational coefficients) and finite test rings, computes Kahler
differentials, de Rham complexes and the conormal complex, classifies
morphisms as etale / lisse / non-ramifie by both the Jacobian route and the
infinitesimal-lifting route, certifies the binary gluing sequence, and
implements Witt-vector, tilting and interval Gauss-norm constructions.
"""

VERSION = "0.1.0"
